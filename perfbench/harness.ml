(** Pure helpers of the benchmark: percentiles and the tail rule, span
    self time, the arrival schedule of the open loop, the metric-name
    grammar and the result line. Nothing here touches a clock, a file
    or a socket, so the self-tests cover all of it. *)

(* ------------------------------------------------------------------ *)
(* Percentiles *)

(** Nearest-rank index (1-based) of percentile [p_tenths]/10 among [n]
    samples: the smallest rank whose share of samples at or below it
    reaches the percentile. Integer arithmetic, so p99 of 100 samples
    is exactly rank 99. *)
let rank ~n ~p_tenths = max 1 (((p_tenths * n) + 999) / 1000)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** [percentile a p_tenths] over an already sorted, non-empty array. *)
let percentile a ~p_tenths = a.(rank ~n:(Array.length a) ~p_tenths - 1)

let median a = percentile a ~p_tenths:500

(** Percentiles a tail may be reported at, highest first. *)
let tail_ladder = [ 999; 990; 950; 900; 750; 500 ]

(** Samples that must lie beyond a reported tail percentile. *)
let min_beyond = 10

type tail = {
  tl_label : string;  (** "p99", "p99.9", ... or "max" *)
  tl_value : float;
  tl_beyond : int;  (** samples strictly past the percentile's rank *)
  tl_n : int;
}

let label_of_tenths t =
  if t mod 10 = 0 then Printf.sprintf "p%d" (t / 10)
  else Printf.sprintf "p%d.%d" (t / 10) (t mod 10)

(** The highest ladder percentile with at least {!min_beyond} samples
    beyond it. A sample too small for even p50 (fewer than 20) reports
    its maximum, labelled ["max"], with no samples beyond. *)
let tail a =
  let n = Array.length a in
  match
    List.find_opt (fun t -> n - rank ~n ~p_tenths:t >= min_beyond) tail_ladder
  with
  | Some t ->
      {
        tl_label = label_of_tenths t;
        tl_value = percentile a ~p_tenths:t;
        tl_beyond = n - rank ~n ~p_tenths:t;
        tl_n = n;
      }
  | None ->
      { tl_label = "max"; tl_value = a.(n - 1); tl_beyond = 0; tl_n = n }

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Span trees and self time *)

type span = {
  sp_name : string;
  sp_start : float;
  sp_stop : float;
  sp_counters : (string * float) list;  (** counts made in this span itself *)
  sp_children : span list;
}

(** Total length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None clipped

(** A span's duration minus the part of its interval its children
    cover (children may overlap each other: spliced worker spans). *)
let self_time sp =
  let dur = sp.sp_stop -. sp.sp_start in
  dur
  -. covered ~lo:sp.sp_start ~hi:sp.sp_stop
       (List.map (fun c -> (c.sp_start, c.sp_stop)) sp.sp_children)

let of_obs_node =
  let rec go (n : Zkml_obs.Obs.node) =
    {
      sp_name = n.Zkml_obs.Obs.name;
      sp_start = n.Zkml_obs.Obs.start_s;
      sp_stop = n.Zkml_obs.Obs.start_s +. n.Zkml_obs.Obs.dur_s;
      sp_counters = n.Zkml_obs.Obs.counters;
      sp_children = List.map go n.Zkml_obs.Obs.children;
    }
  in
  go

(** Rebuild a span forest from flat (name, start, duration, counters)
    events by interval containment — the shape of a chrome trace. An
    event that starts inside an open span becomes its child even if it
    ends later (spans of two threads sharing one trace); {!self_time}
    clips it. *)
let forest_of_events events =
  let events =
    List.sort
      (fun (_, s1, d1, _) (_, s2, d2, _) -> compare (s1, -.d1) (s2, -.d2))
      events
  in
  (* open stack of (name, start, stop, counters, reversed children) *)
  let close (name, s, e, cs, kids) =
    { sp_name = name; sp_start = s; sp_stop = e; sp_counters = cs;
      sp_children = List.rev kids }
  in
  let rec pop_until t stack roots =
    match stack with
    | ((_, _, e, _, _) as top) :: rest when e <= t -> (
        let sp = close top in
        match rest with
        | (n, s, e', cs, kids) :: rest' ->
            pop_until t ((n, s, e', cs, sp :: kids) :: rest') roots
        | [] -> pop_until t [] (sp :: roots))
    | _ -> (stack, roots)
  in
  let stack, roots =
    List.fold_left
      (fun (stack, roots) (name, s, d, cs) ->
        let stack, roots = pop_until s stack roots in
        ((name, s, s +. d, cs, []) :: stack, roots))
      ([], []) events
  in
  let _, roots = pop_until infinity stack roots in
  List.rev roots

(** The layer a span name belongs to, by the module that opens it. *)
let layer_of name =
  let pre p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  match name with
  | "ntt" -> Some "poly"
  | "msm" -> Some "ec"
  | "open" -> Some "commit"
  | "keygen" | "prove" | "prove_many" | "prove_segmented" | "advice-commit"
  | "lookup" | "lookup-commit" | "grand-products" | "quotient"
  | "quotient.interp" | "quotient.compiled" | "evals" | "multiopen" | "verify"
  | "verify_many" | "verify_segmented" ->
      Some "plonkish"
  | "calibrate" | "optimize" | "witness" | "build" | "layout" | "max-ca"
  | "max-cb" | "min-ac" | "min-bc" | "vardiv-r" | "vardiv-rhi" ->
      Some "compiler"
  | _ when pre "segment-" -> Some "compiler"
  | _ when pre "serve." -> Some "serve"
  | _ -> None

(** Sum self time per layer over a forest; spans of no layer (the
    benchmark's own) land under [""]. *)
let layer_self_times forest =
  let tbl = Hashtbl.create 8 in
  let rec walk sp =
    let layer = Option.value (layer_of sp.sp_name) ~default:"" in
    let prev = Option.value (Hashtbl.find_opt tbl layer) ~default:0.0 in
    Hashtbl.replace tbl layer (prev +. self_time sp);
    List.iter walk sp.sp_children
  in
  List.iter walk forest;
  fun layer -> Option.value (Hashtbl.find_opt tbl layer) ~default:0.0

(** Share of [sp]'s interval its direct children cover. *)
let child_cover_frac sp =
  let dur = sp.sp_stop -. sp.sp_start in
  if dur <= 0.0 then 0.0 else (dur -. self_time sp) /. dur

let rec find_all name forest =
  List.concat_map
    (fun sp ->
      (if sp.sp_name = name then [ sp ] else []) @ find_all name sp.sp_children)
    forest

(** Sum of counter [name] over every span of [forest]. *)
let rec counter_sum name forest =
  List.fold_left
    (fun acc sp ->
      acc
      +. Option.value (List.assoc_opt name sp.sp_counters) ~default:0.0
      +. counter_sum name sp.sp_children)
    0.0 forest

(* ------------------------------------------------------------------ *)
(* Seeded inputs and the open-loop schedule *)

(** A per-request seed, a pure function of the run seed, a stream tag
    and the request index. *)
let request_seed ~seed ~stream i =
  let rng =
    Zkml_util.Rng.create
      (Int64.of_int ((seed * 1_000_003) + (stream * 7919) + i))
  in
  Int64.logand (Zkml_util.Rng.next_int64 rng) 0x3fff_ffffL

type op =
  | Prove of { model : string; seeds : int64 list }
  | Prove_seg of { model : string; seed : int64 }
  | Verify_good of int  (** index into the verify corpus *)
  | Verify_bad of int
  | Malformed of int  (** flavor *)
  | Ping

let op_kind = function
  | Prove _ -> "prove"
  | Prove_seg _ -> "prove_seg"
  | Verify_good _ | Verify_bad _ -> "verify"
  | Malformed _ -> "malformed"
  | Ping -> "ping"

type arrival = { due_s : float; op : op }

(** A request kind of the open loop's traffic mix. *)
type kind =
  | K_prove of string  (** a model, batches of 1 or 2 *)
  | K_seg of string  (** a segmented prove of a model *)
  | K_verify_good
  | K_verify_bad
  | K_malformed
  | K_ping

(** Arrivals at an average [rate] per second for about [seconds]: the
    gaps between due times are exponential (a Poisson process), and the
    order of the requests is a seeded shuffle of the [mix], which gives
    each kind a weight and so a fixed count per window (at least one).
    The seed also picks every prove's batch size and inputs. Verify
    arrivals walk the [corpus] entries and malformed ones the [flavors]
    in turn. *)
let schedule ~seed ~rate ~seconds ~mix ~corpus ~flavors =
  let rng = Zkml_util.Rng.create (Int64.of_int (seed + 0x5eed)) in
  let n = seconds *. rate in
  let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 mix in
  let kinds =
    Array.of_list
      (List.concat_map
         (fun (k, w) ->
           List.init (max 1 (int_of_float (Float.round (n *. w /. total)))) (fun _ -> k))
         mix)
  in
  for i = Array.length kinds - 1 downto 1 do
    let j = Zkml_util.Rng.int rng (i + 1) in
    let t = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- t
  done;
  let verifies = ref 0 and malformed = ref 0 and due = ref 0.0 in
  List.mapi
    (fun i kind ->
      due := !due -. (log (1.0 -. Zkml_util.Rng.float rng) /. rate);
      let op =
        match kind with
        | K_prove model ->
            let batch = 1 + Zkml_util.Rng.int rng 2 in
            Prove
              {
                model;
                seeds =
                  List.init batch (fun j -> request_seed ~seed ~stream:1 ((4 * i) + j));
              }
        | K_seg model -> Prove_seg { model; seed = request_seed ~seed ~stream:2 i }
        | K_verify_good | K_verify_bad ->
            let c = !verifies mod corpus in
            incr verifies;
            if kind = K_verify_good then Verify_good c else Verify_bad c
        | K_malformed ->
            let f = !malformed mod flavors in
            incr malformed;
            Malformed f
        | K_ping -> Ping
      in
      { due_s = !due; op })
    (Array.to_list kinds)

(* ------------------------------------------------------------------ *)
(* Metric names and the result line *)

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(** A metric name: 1 to 64 of [A-Za-z0-9_.-], starting with a letter
    or digit. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all is_name_char s

(** A unit: 1 to 16 of [A-Za-z0-9_/%.-]. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
             true
         | _ -> false)
       s

type metric = { m_name : string; m_value : float; m_unit : string }

(** Shortest decimal that reads back as the same float: every digit
    measured, nothing invented. *)
let float_repr v =
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec v in
    if prec >= 17 || float_of_string s = v then s else go (prec + 1)
  in
  go 1

(** The one-line JSON result. Raises [Invalid_argument] on a name,
    unit or value the result format cannot carry. *)
let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        if not (valid_name m.m_name) then
          invalid_arg ("bad metric name: " ^ m.m_name);
        if not (valid_unit m.m_unit) then
          invalid_arg ("bad unit: " ^ m.m_unit);
        if not (Float.is_finite m.m_value) then
          invalid_arg ("non-finite value for " ^ m.m_name);
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
          (float_repr m.m_value) m.m_unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* The metrics a run reports, in order: BENCHMARK.json lists the same *)

let end_to_end =
  [
    ("setup_s", "s"); ("proofs_per_s", "1/s"); ("prove_p50_s", "s");
    ("prove_tail_s", "s"); ("verify_p50_s", "s"); ("verify_tail_s", "s");
    ("verify_batch_per_proof_s", "s"); ("proof_bytes", "bytes");
    ("peak_rss_mb", "MB"); ("ok_frac", "frac"); ("input_ok_frac", "frac");
    ("slo_ok_frac", "frac");
  ]

let per_layer =
  [
    ("poly.ntt_s", "s"); ("poly.ntt_calls", "count"); ("poly.ntt_points", "count");
    ("ec.msm_s", "s"); ("ec.msm_calls", "count"); ("ec.msm_points", "count");
    ("ec.verify_msm_s", "s"); ("ec.verify_msm_points", "count");
    ("commit.open_s", "s"); ("commit.commitments", "count");
    ("commit.final_checks", "count"); ("plonkish.advice_commit_s", "s");
    ("plonkish.lookup_s", "s"); ("plonkish.lookup_commit_s", "s");
    ("plonkish.grand_products_s", "s"); ("plonkish.quotient_s", "s");
    ("plonkish.quotient_ntt_s", "s"); ("plonkish.quotient_eval_s", "s");
    ("plonkish.evals_s", "s"); ("plonkish.multiopen_s", "s");
    ("plonkish.quotient_pieces", "count"); ("plonkish.verify_s", "s");
    ("compiler.witness_s", "s"); ("serve.prepare_s", "s");
    ("poly.self_s", "s"); ("ec.self_s", "s"); ("commit.self_s", "s");
    ("plonkish.self_s", "s"); ("compiler.self_s", "s"); ("serve.self_s", "s");
    ("bench.prove_phase_cover_frac", "frac");
    ("bench.verify_phase_cover_frac", "frac"); ("commit.srs_setup_s", "s");
    ("plonkish.keygen_s", "s"); ("compiler.calibrate_s", "s");
    ("compiler.optimize_s", "s"); ("compiler.optimizer_candidates", "count");
    ("compiler.rows", "count"); ("compiler.k", "count");
    ("serve.cache_hit_frac", "frac"); ("bench.gen_lag_p99_s", "s");
    ("bench.trace_overhead_frac", "frac"); ("bench.untraced_frac", "frac");
  ]

(** [metrics] names and units exactly [expected], in order. *)
let conforms expected metrics =
  List.length expected = List.length metrics
  && List.for_all2 (fun (n, u) mt -> n = mt.m_name && u = mt.m_unit) expected metrics
