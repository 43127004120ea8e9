(* The benchmark runner. One invocation runs one named workload for a
   fixed window, checks every answer, and prints a human-readable
   report followed by one JSON result line on stdout:

     zkbench --workload prove-kzg|ipa-verify|serve-mixed --seed N
             --seconds S --trace 0|1 [--smoke]

   --trace 0 reports the end-to-end metrics; --trace 1 is a separate
   run with the program's trace sink on, reporting per-layer metrics.
   See perfbench/README.md for the workloads and the metric map. *)

module H = Harness
module Obs = Zkml_obs.Obs
module Metrics = Zkml_obs.Metrics
module Mclock = Zkml_obs.Mclock
module Json = Zkml_util.Json
module Zoo = Zkml_models.Zoo
module B = Zkml_serve.Backends
module Pf = Zkml_serve.Proof_file
module Seg_proof = Zkml_serve.Seg_proof
module Wire = Zkml_serve.Wire
module T = Zkml_tensor.Tensor
module Fx = Zkml_fixed.Fixed

let now = Mclock.now_s
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Arguments *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  child_setup : bool;  (** internal: time one set-up and exit *)
}

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref 0 and smoke = ref false and child_setup = ref false in
  Arg.parse_argv Sys.argv
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--smoke", Arg.Set smoke, " one set-up, a window of at most 2 s");
      ("--child-setup", Arg.Set child_setup, " (internal) time one set-up");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "zkbench --workload NAME --seed N --seconds S --trace 0|1";
  if !seed < 0 then raise (Arg.Bad "--seed N (N >= 0) is required");
  if !seconds <= 0.0 && not !child_setup then
    raise (Arg.Bad "--seconds S (S > 0) is required");
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace must be 0 or 1");
  {
    workload = !workload;
    seed = !seed;
    seconds = (if !smoke then Float.min !seconds 2.0 else !seconds);
    trace = !trace = 1;
    smoke = !smoke;
    child_setup = !child_setup;
  }

(* ------------------------------------------------------------------ *)
(* Process helpers *)

(* Set-ups measured per run (fresh processes or daemons, each on an
   empty cache); the median is reported. *)
let setup_repeats = 3

(* Every file the benchmark writes lives under this directory of the
   checkout it runs in, one subdirectory per process. *)
let run_base = ".perfbench_run"
let run_root = Filename.concat run_base (string_of_int (Unix.getpid ()))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir name =
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ run_base; run_root ];
  let d = Filename.concat run_root name in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* Peak resident set of a live process, from the kernel's own tally. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

(* Cores available to this process. *)
let nproc () = Domain.recommended_domain_count ()

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------------------------------------------ *)
(* The correctness oracle's reference values *)

(** The public values an honest proof of [m] on [inputs] must carry:
    the quantized inputs, then the outputs of {!Zkml_nn.Quant_exec} —
    the order the lowering exposes them in. *)
let expected_public (m : Zoo.model) inputs =
  let cfg = m.Zoo.cfg in
  let q = List.map (T.map (Fx.quantize cfg)) inputs in
  let exec = Zkml_nn.Quant_exec.run cfg m.Zoo.graph ~inputs:q in
  let ins =
    Zkml_nn.Graph.nodes m.Zoo.graph
    |> Array.to_list
    |> List.filter_map (fun (n : Zkml_nn.Graph.node) ->
           match n.Zkml_nn.Graph.op with
           | Zkml_nn.Op.Input _ ->
               Some (T.data exec.Zkml_nn.Quant_exec.values.(n.Zkml_nn.Graph.id))
           | _ -> None)
  in
  let outs =
    List.map T.data (Zkml_nn.Quant_exec.output_values exec m.Zoo.graph)
  in
  (Array.concat ins, Array.concat outs)

(** The instance column is the exposed values padded with zeros. *)
let instance_matches (ins, outs) instance =
  let want = Array.append ins outs in
  let n = Array.length want in
  Array.length instance >= n
  && Array.sub instance 0 n = want
  && Array.for_all (( = ) 0) (Array.sub instance n (Array.length instance - n))

(** A segmented proof carries the model's outputs in its last segment. *)
let outputs_in (_, outs) instance =
  let n = Array.length outs and len = Array.length instance in
  let rec at i = i + n <= len && (Array.sub instance i n = outs || at (i + 1)) in
  n > 0 && at 0

(* Draws the reference executor refused in the timed requests, per
   model; the report prints them. *)
let out_of_range : (string, int) Hashtbl.t = Hashtbl.create 4

(** The [i]th input of a seeded stream for [mdl], with its expected
    public values: the first seed of the request's sub-stream whose
    input {!Zkml_nn.Quant_exec} accepts. Some zoo models raise
    [Out_of_range] on part of what [Zoo.sample_inputs] generates; those
    draws are counted and never sent, and {!input_probe} reports the
    share of them. *)
let draw (mdl : Zoo.model) ~seed ~stream i =
  let rec go j =
    if j >= 64 then failwith (mdl.Zoo.name ^ ": no in-range input in 64 draws");
    let s = H.request_seed ~seed ~stream ((i * 64) + j) in
    let inputs = Zoo.sample_inputs ~seed:s mdl in
    match expected_public mdl inputs with
    | expected -> (s, inputs, expected)
    | exception Zkml_nn.Quant_exec.Out_of_range _ ->
        Hashtbl.replace out_of_range mdl.Zoo.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt out_of_range mdl.Zoo.name));
        go (j + 1)
  in
  go 0

let out_of_range_note () =
  Printf.sprintf "inputs out of Quant_exec range (redrawn): %s"
    (match Hashtbl.fold (fun k v acc -> Printf.sprintf "%s=%d" k v :: acc) out_of_range [] with
    | [] -> "none"
    | l -> String.concat " " (List.sort compare l))

(* Seeded inputs per model behind [input_ok_frac]. *)
let probe_draws = 1000

(** Share of seeded inputs the program can run: [probe_draws] draws of
    [Zoo.sample_inputs] per model on a stream of their own, each run
    through {!Zkml_nn.Quant_exec}. Returns the mean share over [models]
    and a report line with the per-model counts. *)
let input_probe models ~seed =
  let t0 = now () in
  let counts =
    List.map
      (fun (mdl : Zoo.model) ->
        let ok = ref 0 in
        for i = 0 to probe_draws - 1 do
          let inputs = Zoo.sample_inputs ~seed:(H.request_seed ~seed ~stream:7 i) mdl in
          match expected_public mdl inputs with
          | _ -> incr ok
          | exception Zkml_nn.Quant_exec.Out_of_range _ -> ()
        done;
        (mdl.Zoo.name, !ok))
      models
  in
  ( H.mean (List.map (fun (_, ok) -> float_of_int ok /. float_of_int probe_draws) counts),
    Printf.sprintf "input_ok_frac: inputs Quant_exec accepts, of %d per model: %s (%.2f s)"
      probe_draws
      (String.concat " " (List.map (fun (n, ok) -> Printf.sprintf "%s=%d" n ok) counts))
      (now () -. t0) )

let content_rows (m : Zoo.model) ~spec ~ncols ~k =
  let cfg = m.Zoo.cfg in
  let exec =
    Zkml_nn.Quant_exec.run ~saturate:true cfg m.Zoo.graph
      ~inputs:(B.Pipe_kzg.zero_inputs m.Zoo.graph)
  in
  let lowered =
    Zkml_compiler.Lower.lower ~spec ~cfg ~ncols ~counting:false m.Zoo.graph exec
  in
  (Zkml_compiler.Layouter.finalize lowered.Zkml_compiler.Lower.layouter
     ~blinding:Zkml_compiler.Optimizer.blinding ~k)
    .Zkml_compiler.Layouter.rows_content

(** Mean duration of [pass] (which returns its own duration), repeated
    for at least 4 s: on a shared VM the CPU speed drifts on a scale of
    seconds, so a short pass timed once, or for one second, reads
    whatever state it lands in. Returns the mean and the number of passes. *)
let mean_pass pass =
  let rec go n spent = if spent >= 4.0 then (spent /. float_of_int n, n) else go (n + 1) (spent +. pass ()) in
  go 1 (pass ())

(* ------------------------------------------------------------------ *)
(* Results *)

type result = {
  r_attempted : int;
  r_failed : int;
  r_misses : string list;  (** oracle misses: any one fails the run *)
  r_metrics : H.metric list;
  r_notes : string list;  (** extra report lines *)
}

let m name unit value = { H.m_name = name; m_value = value; m_unit = unit }

(** Latency metrics with the sample counts the report prints. *)
let timing_metrics ~kind samples =
  let a = H.sorted samples in
  let t = H.tail a in
  ( [ m (kind ^ "_p50_s") "s" (H.median a); m (kind ^ "_tail_s") "s" t.H.tl_value ],
    Printf.sprintf "%s: n=%d p50=%.6f tail=%s %.6f (%d beyond)" kind
      (Array.length a) (H.median a) t.H.tl_label t.H.tl_value t.H.tl_beyond )

let rec total_in sp name =
  if sp.H.sp_name = name then sp.H.sp_stop -. sp.H.sp_start
  else List.fold_left (fun a c -> a +. total_in c name) 0.0 sp.H.sp_children

let span_dur sp = sp.H.sp_stop -. sp.H.sp_start

(* Per-layer metrics of traced requests. Prove-side figures come from
   the [prove_side] forest (artifact lookup, witness and prove) and are
   per prove call (a 4-segment proof is 4 prove calls); verify-side
   ones come from the [verify_side] forest and are per verify call. *)
let layer_metrics ~prove_side ~verify_side =
  let per forest call v =
    v /. float_of_int (max 1 (List.length (H.find_all call forest)))
  in
  let total forest name = List.fold_left (fun a sp -> a +. total_in sp name) 0.0 forest in
  let p v = per prove_side "prove" v and v_ v = per verify_side "verify" v in
  let pt name = p (total prove_side name) and pc name = p (H.counter_sum name prove_side) in
  let under parent name = total (H.find_all parent prove_side) name in
  let self = H.layer_self_times prove_side in
  let cover forest name =
    let spans = H.find_all name forest in
    let d = List.fold_left (fun a s -> a +. span_dur s) 0.0 spans in
    let c =
      List.fold_left (fun a s -> a +. (span_dur s *. H.child_cover_frac s)) 0.0 spans
    in
    if d > 0.0 then c /. d else 0.0
  in
  [
    m "poly.ntt_s" "s" (pt "ntt");
    m "poly.ntt_calls" "count" (p (float_of_int (List.length (H.find_all "ntt" prove_side))));
    m "poly.ntt_points" "count" (pc "ntt.size");
    m "ec.msm_s" "s" (pt "msm");
    m "ec.msm_calls" "count" (p (float_of_int (List.length (H.find_all "msm" prove_side))));
    m "ec.msm_points" "count" (pc "msm.points");
    m "ec.verify_msm_s" "s" (v_ (total verify_side "msm"));
    m "ec.verify_msm_points" "count" (v_ (H.counter_sum "msm.points" verify_side));
    m "commit.open_s" "s" (pt "open");
    m "commit.commitments" "count" (pc "commitments");
    m "commit.final_checks" "count" (v_ (H.counter_sum "pcs.final_check" verify_side));
    m "plonkish.advice_commit_s" "s" (pt "advice-commit");
    m "plonkish.lookup_s" "s" (pt "lookup");
    m "plonkish.lookup_commit_s" "s" (pt "lookup-commit");
    m "plonkish.grand_products_s" "s" (pt "grand-products");
    m "plonkish.quotient_s" "s" (pt "quotient");
    m "plonkish.quotient_ntt_s" "s" (p (under "quotient" "ntt"));
    m "plonkish.quotient_eval_s" "s"
      (p (under "quotient" "quotient.compiled" +. under "quotient" "quotient.interp"));
    m "plonkish.evals_s" "s" (pt "evals");
    m "plonkish.multiopen_s" "s" (pt "multiopen");
    m "plonkish.quotient_pieces" "count" (pc "quotient.pieces");
    m "plonkish.verify_s" "s" (v_ (total verify_side "verify"));
    m "compiler.witness_s" "s" (pt "witness");
    m "serve.prepare_s" "s" (pt "serve.prepare");
    m "poly.self_s" "s" (p (self "poly"));
    m "ec.self_s" "s" (p (self "ec"));
    m "commit.self_s" "s" (p (self "commit"));
    m "plonkish.self_s" "s" (p (self "plonkish"));
    m "compiler.self_s" "s" (p (self "compiler"));
    m "serve.self_s" "s" (p (self "serve"));
    m "bench.prove_phase_cover_frac" "frac" (cover prove_side "prove");
    m "bench.verify_phase_cover_frac" "frac" (cover verify_side "verify");
  ]

(* Artifact-cache lookups so far in this process: (hits, all). *)
let cache_lookups () =
  List.fold_left
    (fun acc fam ->
      if fam.Metrics.f_name <> "zkml_cache_lookups_total" then acc
      else
        List.fold_left
          (fun (h, t) s ->
            let v =
              match s.Metrics.s_value with
              | Metrics.Counter_v v | Metrics.Gauge_v v -> v
              | Metrics.Hist_v _ -> 0.0
            in
            let hit = List.mem_assoc "status" s.Metrics.s_labels
                      && List.mem (List.assoc "status" s.Metrics.s_labels) [ "hit_mem"; "hit_disk" ] in
            ((if hit then h +. v else h), t +. v))
          acc fam.Metrics.f_series)
    (0.0, 0.0) (Metrics.snapshot ())

(* ------------------------------------------------------------------ *)
(* In-process closed loop: prove-kzg and ipa-verify *)

type inproc_cfg = {
  ic_models : string list;  (** round-robin order *)
  ic_round_s : float;
      (** nominal seconds of one round on the reference machine: a run
          measures the whole number of rounds nearest to --seconds, so
          every run proves the same requests *)
  ic_verifies : int;  (** independent verifies of each proof *)
  ic_slo_prove_s : float;
  ic_slo_verify_s : float;
}

module Inproc (Scheme : Zkml_commit.Scheme_intf.S) (X : sig
  val backend : B.backend
end) =
struct
  module Serve = Zkml_serve.Artifacts.Make (Scheme)
  module Pipe = Serve.Pipe
  module Proto = Pipe.Proto

  (** Everything a fresh process does before it can prove: SRS set-up,
      then the artifact cache's compile path (calibration, optimize,
      keygen) for every model, against an empty cache directory. *)
  let setup models =
    let t0 = now () in
    let params =
      Obs.Span.with_ ~name:"bench.srs_setup" (fun () ->
          Scheme.setup ~max_size:(1 lsl B.srs_k) ~seed:"zkml-cli")
    in
    let entries =
      List.map
        (fun (mdl : Zoo.model) ->
          let e, status = Serve.prepare ~cfg:mdl.Zoo.cfg params mdl.Zoo.graph in
          if Zkml_serve.Artifacts.is_hit status then
            failwith "set-up found a warm artifact cache";
          (mdl, e))
        models
    in
    (params, entries, now () -. t0)

  (* Verifier keys rebuilt from a proof header, never the prover's. *)
  let verifier_keys = Hashtbl.create 8

  let keys_for params (mdl : Zoo.model) (pf : Pf.t) =
    let key =
      ( mdl.Zoo.name,
        Zkml_compiler.Layout_spec.to_string pf.Pf.pf_spec,
        pf.Pf.pf_ncols,
        pf.Pf.pf_k )
    in
    match Hashtbl.find_opt verifier_keys key with
    | Some k -> k
    | None ->
        let k =
          Pipe.rebuild_keys params ~spec:pf.Pf.pf_spec ~ncols:pf.Pf.pf_ncols
            ~k:pf.Pf.pf_k ~cfg:pf.Pf.pf_cfg mdl.Zoo.graph
        in
        Hashtbl.add verifier_keys key k;
        k

  type sample = {
    s_model : string;
    s_prove : float;
    s_verifies : float list;
    s_bytes : int;
    s_alloc_words : float;
    s_ok : bool;
    s_pf : Pf.t;
    s_k : int;
    s_start : float;
  }

  (* [f ()], and when [traced] under a benchmark span [name] with the
     trace sink on; the recorded spans go to [into]. *)
  let phase ~traced ~name into f =
    if not traced then f ()
    else begin
      let r, report = Obs.with_enabled (fun () -> Obs.Span.with_ ~name f) in
      into := !into @ List.map H.of_obs_node report.Obs.spans;
      r
    end

  (* Spans of the traced requests: prove side and verify side. *)
  let prove_forest = ref [] and verify_forest = ref []

  (* One closed-loop request: prove through the serving entry points,
     render the proof file, then verify it from the file alone
     [verifies] times, as that many independent verifiers would. The
     input is drawn, and the answers checked, outside the timed and
     traced parts. *)
  let request ?(traced = false) params mdl ~verifies ~seed ~stream i ~misses =
    let input_seed, inputs, expected = draw mdl ~seed ~stream i in
    let cfg = mdl.Zoo.cfg in
    let t0, t1, bytes, alloc, text, k =
      phase ~traced ~name:"bench.prove" prove_forest (fun () ->
          let t0 = now () in
          let a0 = alloc_words () in
          let entry', _ = Serve.prepare ~cfg params mdl.Zoo.graph in
          let w = Serve.witness entry' ~cfg mdl.Zoo.graph inputs in
          let proof =
            Proto.prove params entry'.Serve.e_keys ~instance:w.Pipe.w_instance
              ~advice:(fun _ -> Array.map Array.copy w.Pipe.w_advice)
              ~rng:(Zkml_util.Rng.create input_seed)
          in
          let bytes = Proto.proof_to_bytes proof in
          let alloc = alloc_words () -. a0 in
          let text =
            Pf.to_string ~backend:X.backend ~model_name:mdl.Zoo.name ~cfg
              ~spec:entry'.Serve.e_spec ~ncols:entry'.Serve.e_ncols ~k:entry'.Serve.e_k
              ~instance_ints:w.Pipe.w_instance_ints
              ~proof_hex:(Zkml_util.Bytes_util.to_hex bytes)
          in
          (t0, now (), bytes, alloc, text, entry'.Serve.e_k))
    in
    let verify () =
      phase ~traced ~name:"bench.verify" verify_forest (fun () ->
          let t0 = now () in
          let pf =
            match Pf.of_string text with
            | Ok pf -> pf
            | Error e -> failwith ("proof file does not parse: " ^ Zkml_util.Err.to_string e)
          in
          let keys = keys_for params mdl pf in
          let verdict =
            Pipe.verify_verdict params keys ~instance_ints:pf.Pf.pf_instance pf.Pf.pf_proof
          in
          (pf, verdict, now () -. t0))
    in
    let checks = List.init verifies (fun _ -> verify ()) in
    let pf, _, _ = List.hd checks in
    let bad = List.filter (fun (_, v, _) -> v <> Proto.Accepted) checks in
    let ok_verdict = bad = [] in
    let ok_public = instance_matches expected pf.Pf.pf_instance in
    List.iter
      (fun (_, v, _) ->
        misses :=
          Printf.sprintf "%s: honest proof %s" mdl.Zoo.name (Proto.verdict_string v)
          :: !misses)
      bad;
    if not ok_public then
      misses := Printf.sprintf "%s: public values differ from Quant_exec" mdl.Zoo.name
        :: !misses;
    {
      s_model = mdl.Zoo.name;
      s_prove = t1 -. t0;
      s_verifies = List.map (fun (_, _, t) -> t) checks;
      s_bytes = String.length bytes;
      s_alloc_words = alloc;
      s_ok = ok_verdict && ok_public;
      s_pf = pf;
      s_k = k;
      s_start = t0;
    }

  (* Tampered public values must draw Rejected, cut bytes Malformed;
     returns the number of wrong verdicts (of 2). *)
  let adversarial params (mdl : Zoo.model) (pf : Pf.t) ~misses =
    let keys = keys_for params mdl pf in
    let bumped = Array.copy pf.Pf.pf_instance in
    bumped.(0) <- bumped.(0) + 1;
    let cut = String.sub pf.Pf.pf_proof 0 (String.length pf.Pf.pf_proof / 2) in
    List.length
      (List.filter
         (fun (what, instance_ints, bytes, want) ->
           let v = Pipe.verify_verdict params keys ~instance_ints bytes in
           let ok =
             match (v, want) with
             | Proto.Rejected, `Rejected | Proto.Malformed _, `Malformed -> true
             | _ -> false
           in
           if not ok then
             misses := (mdl.Zoo.name ^ ": " ^ what ^ " proof " ^ Proto.verdict_string v) :: !misses;
           not ok)
         [ ("tampered", bumped, pf.Pf.pf_proof, `Rejected);
           ("truncated", pf.Pf.pf_instance, cut, `Malformed) ])

  let run (cfg : inproc_cfg) (a : args) ~other_setups =
    let models = List.map Zoo.by_name cfg.ic_models in
    let setup_report = ref None in
    let params, entries, setup_s =
      if a.trace then begin
        let r, report = Obs.with_enabled (fun () -> setup models) in
        setup_report := Some report;
        r
      end
      else setup models
    in
    let misses = ref [] in
    let nm = List.length entries in
    let entry_arr = Array.of_list (List.map fst entries) in
    (* warm-up: one request per model (pool domains, twiddle tables,
       verifier keys) before anything is timed *)
    (* checks outside the window: the warm-up's adversarial verdicts and
       the batch verdicts; they count as attempted and failed too *)
    let extra_checks = ref 0 and extra_failed = ref 0 in
    Array.iteri
      (fun i e ->
        let s =
          request params e ~verifies:1 ~seed:a.seed ~stream:9 i ~misses
        in
        extra_checks := !extra_checks + 2;
        extra_failed := !extra_failed + adversarial params e s.s_pf ~misses)
      entry_arr;
    (* timed window: whole rounds over the models, so every run weighs
       the models alike; a traced run alternates plain and traced rounds *)
    let samples = ref [] and lags = ref [] in
    let plain_lat = ref [] and traced_lat = ref [] in
    let t_start = now () in
    let last_done = ref t_start in
    let round = ref 0 in
    let rounds =
      max (if a.trace then 2 else 1)
        (int_of_float (Float.round (a.seconds /. cfg.ic_round_s)))
    in
    let lookups0 = cache_lookups () in
    while !round < rounds do
      let traced = a.trace && !round mod 2 = 0 in
      Array.iteri
        (fun j e ->
          let i = (!round * nm) + j in
          let s =
            request ~traced params e ~verifies:cfg.ic_verifies ~seed:a.seed ~stream:0 i ~misses
          in
          lags := (s.s_start -. !last_done) :: !lags;
          last_done := now ();
          (if traced then traced_lat else plain_lat) :=
            (s.s_prove +. List.hd s.s_verifies)
            :: !(if traced then traced_lat else plain_lat);
          samples := s :: !samples)
        entry_arr;
      incr round
    done;
    let wall = now () -. t_start in
    let lookups1 = cache_lookups () in
    let samples = List.rev !samples in
    (* batched verification of every proof of the window, one
       verify_many per model with the rebuilt verifier keys, timed over
       repeated passes *)
    let batches =
      List.filter_map
        (fun mdl ->
          match List.filter (fun s -> s.s_model = mdl.Zoo.name) samples with
          | [] -> None
          | s0 :: _ as mine ->
              Some
                ( mdl,
                  keys_for params mdl s0.s_pf,
                  List.map (fun s -> (s.s_pf.Pf.pf_instance, s.s_pf.Pf.pf_proof)) mine ))
        (Array.to_list entry_arr)
    in
    let batch_n = List.fold_left (fun acc (_, _, b) -> acc + List.length b) 0 batches in
    let first = ref true in
    let pass () =
      let t0 = now () in
      let verdicts =
        List.map (fun (mdl, keys, batch) -> (mdl, Pipe.verify_many_verdict params keys ~batch)) batches
      in
      let t = now () -. t0 in
      if !first then
        List.iter
          (fun (mdl, v) ->
            incr extra_checks;
            if v <> Proto.Accepted then begin
              incr extra_failed;
              misses := (mdl.Zoo.name ^ ": batch " ^ Proto.verdict_string v) :: !misses
            end)
          verdicts;
      first := false;
      t
    in
    Gc.full_major ();
    let batch_s, passes = mean_pass pass in
    let input_ok, probe_note =
      if a.trace then (0.0, "input_ok_frac: not measured in a traced run")
      else input_probe models ~seed:a.seed
    in
    let attempted = List.length samples in
    let failed = List.length (List.filter (fun s -> not s.s_ok) samples) in
    let prove_lat = List.map (fun s -> s.s_prove) samples
    and verify_lat = List.concat_map (fun s -> s.s_verifies) samples in
    let slo_ok =
      List.length
        (List.filter
           (fun s ->
             s.s_ok && s.s_prove <= cfg.ic_slo_prove_s
             && List.for_all (fun v -> v <= cfg.ic_slo_verify_s) s.s_verifies)
           samples)
    in
    let pm, pnote = timing_metrics ~kind:"prove" prove_lat in
    let vm, vnote = timing_metrics ~kind:"verify" verify_lat in
    let setups = H.sorted (setup_s :: other_setups) in
    let e2e =
      [ m "setup_s" "s" (H.median setups);
        m "proofs_per_s" "1/s" (float_of_int attempted /. wall) ]
      @ pm @ vm
      @ [
          m "verify_batch_per_proof_s" "s" (batch_s /. float_of_int (max 1 batch_n));
          m "proof_bytes" "bytes"
            (H.mean (List.map (fun s -> float_of_int s.s_bytes) samples));
          m "peak_rss_mb" "MB" (peak_rss_mb "self");
          m "ok_frac" "frac"
            (float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
          m "input_ok_frac" "frac" input_ok;
          m "slo_ok_frac" "frac" (float_of_int slo_ok /. float_of_int (max 1 attempted));
        ]
    in
    let per_layer =
      if not a.trace then []
      else begin
        let prove_side = !prove_forest and verify_side = !verify_forest in
        let setup_rep = Option.get !setup_report in
        let self = H.layer_self_times (prove_side @ verify_side) in
        let req_wall =
          List.fold_left (fun acc sp -> acc +. span_dur sp) 0.0 (prove_side @ verify_side)
        in
        let rows =
          List.map
            (fun (mdl, e) ->
              ( mdl.Zoo.name,
                content_rows mdl ~spec:e.Serve.e_spec ~ncols:e.Serve.e_ncols
                  ~k:e.Serve.e_k ))
            entries
        in
        let lags = H.sorted !lags in
        let hit, total =
          let h1, t1 = lookups1 and h0, t0 = lookups0 in
          (h1 -. h0, t1 -. t0)
        in
        layer_metrics ~prove_side ~verify_side
        @ [
            m "commit.srs_setup_s" "s" (Obs.total_of setup_rep "bench.srs_setup");
            m "plonkish.keygen_s" "s" (Obs.total_of setup_rep "keygen");
            m "compiler.calibrate_s" "s" (Obs.total_of setup_rep "calibrate");
            m "compiler.optimize_s" "s" (Obs.total_of setup_rep "optimize");
            m "compiler.optimizer_candidates" "count"
              (Obs.counter_total setup_rep "optimizer.candidates");
            m "compiler.rows" "count"
              (H.mean
                 (List.map (fun s -> float_of_int (List.assoc s.s_model rows)) samples));
            m "compiler.k" "count"
              (H.mean (List.map (fun s -> float_of_int s.s_k) samples));
            m "serve.cache_hit_frac" "frac" (if total > 0.0 then hit /. total else 0.0);
            m "bench.gen_lag_p99_s" "s" (H.percentile lags ~p_tenths:990);
            m "bench.trace_overhead_frac" "frac"
              (H.mean !traced_lat /. H.mean !plain_lat -. 1.0);
            m "bench.untraced_frac" "frac"
              (if req_wall > 0.0 then self "" /. req_wall else 0.0);
          ]
      end
    in
    {
      r_attempted = attempted + !extra_checks;
      r_failed = failed + !extra_failed;
      r_misses = List.rev !misses;
      r_metrics = (if a.trace then per_layer else e2e);
      r_notes =
        [ Printf.sprintf "window: %.3f s, %d rounds, %d proofs" wall !round attempted;
          "per model (prove p50 s / verify p50 s / proof bytes / k): "
          ^ String.concat ", "
              (List.map
                 (fun name ->
                   let mine = List.filter (fun s -> s.s_model = name) samples in
                   Printf.sprintf "%s %.4f / %.5f / %.0f / %d" name
                     (H.median (H.sorted (List.map (fun s -> s.s_prove) mine)))
                     (H.median (H.sorted (List.concat_map (fun s -> s.s_verifies) mine)))
                     (H.mean (List.map (fun s -> float_of_int s.s_bytes) mine))
                     (List.hd mine).s_k)
                 cfg.ic_models);
          pnote; vnote;
          Printf.sprintf "setup_s: n=%d values=[%s]" (Array.length setups)
            (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.4f") setups)));
          Printf.sprintf "verify_many: %d proofs in %.4f s (mean of %d passes)" batch_n
            batch_s passes;
          Printf.sprintf "failed_frac: %.6f (%d of %d)"
            (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
          probe_note;
          Printf.sprintf "extra bench.alloc_mb_per_proof %.3f MB"
            (H.mean (List.map (fun s -> s.s_alloc_words) samples)
            *. float_of_int (Sys.word_size / 8) /. 1048576.0) ];
    }

  (* A set-up child's whole job. *)
  let setup_only models =
    let _, _, s = setup (List.map Zoo.by_name models) in
    s
end

module Kzg_run = Inproc (B.Kzg) (struct let backend = B.Kzg end)
module Ipa_run = Inproc (B.Ipa) (struct let backend = B.Ipa end)

(* ------------------------------------------------------------------ *)
(* serve-mixed: open loop against a forked `zkml serve` daemon *)

let serve_models = [ "mnist"; "dlrm" ]
let seg_model = "mnist"
let corpus_model = "mnist"
let segments = 4
let daemon_workers = 2

(* The open loop's traffic: the mean arrival rate, and the mix of
   request kinds by weight (about 240 requests at --seconds 20). *)
let serve_rate = 12.0

let serve_mix =
  H.[ (K_seg seg_model, 1.0); (K_prove "dlrm", 3.0); (K_verify_good, 30.0);
      (K_verify_bad, 30.0); (K_malformed, 15.0); (K_ping, 21.0) ]

(* Latency limits per request kind, from the due time. *)
let slo_of_kind = function
  | "prove" -> 3.0
  | "prove_seg" -> 6.0
  | "verify" -> 0.5
  | _ -> 0.25

let zkml_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "zkml_cli.exe")

type daemon = {
  d_pid : int;
  d_addr : Zkml_serve.Server.addr;
  d_metrics : string;
  d_trace : string option;
  mutable d_alive : bool;
}

let read_response fd =
  match Wire.read_frame fd with
  | Wire.Frame (kind, payload) -> Wire.response_of_payload kind payload
  | Wire.Eof -> Error (Zkml_util.Err.make Zkml_util.Err.Truncated "connection closed")
  | Wire.Fail e -> Error e

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(** Fork the daemon with a fresh, empty cache and return it once it
    answers a Ping, with the seconds that took. *)
let spawn_daemon ~name ~trace =
  let dir = fresh_dir name in
  let sock = Filename.concat dir "d.sock" in
  let metrics = Filename.concat dir "metrics.json" in
  let trace_file = if trace then Some (Filename.concat dir "trace.json") else None in
  let env =
    (Unix.environment () |> Array.to_list
    |> List.filter (fun kv -> not (starts_with "ZKML_" kv)))
    @ [ "ZKML_CACHE_DIR=" ^ Filename.concat dir "cache"; "ZKML_METRICS=" ^ metrics;
        "ZKML_JOBS=1" ]
    @ match trace_file with Some f -> [ "ZKML_TRACE=" ^ f ] | None -> []
  in
  let exe = zkml_exe () in
  let addr = Zkml_serve.Server.Unix_sock sock in
  let t0 = now () in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--socket"; sock; "--workers"; string_of_int daemon_workers;
         "--queue"; "16"; "--warm"; String.concat "," serve_models |]
      (Array.of_list env) Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { d_pid = pid; d_addr = addr; d_metrics = metrics; d_trace = trace_file; d_alive = true } in
  let rec wait () =
    if now () -. t0 > 150.0 then failwith "daemon did not come up";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        d.d_alive <- false;
        failwith "daemon exited during set-up");
    match Zkml_serve.Server.connect addr with
    | exception Unix.Unix_error _ ->
        Unix.sleepf 0.002;
        wait ()
    | fd ->
        Wire.send_request fd Wire.Ping;
        let r = read_response fd in
        Unix.close fd;
        (match r with Ok Wire.Pong -> () | _ -> Unix.sleepf 0.002; wait ())
  in
  wait ();
  (d, now () -. t0)

(** Shut the daemon down over the wire and reap it (within 30 s, or it
    is killed and the run fails); its peak RSS is read first, while it
    still runs. *)
let stop_daemon d =
  let rss = peak_rss_mb (string_of_int d.d_pid) in
  let fd = Zkml_serve.Server.connect d.d_addr in
  Wire.send_request fd Wire.Shutdown;
  let stopped = read_response fd = Ok Wire.Stopping in
  Unix.close fd;
  let t0 = now () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.d_pid with
    | 0, _ when now () -. t0 < 30.0 ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ -> None
    | _, st -> Some st
  in
  let st = reap () in
  if st <> None then d.d_alive <- false;
  if not stopped || st <> Some (Unix.WEXITED 0) then failwith "daemon did not stop cleanly";
  rss

let kill_daemon d =
  if d.d_alive then begin
    (try Unix.kill d.d_pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.d_pid) with Unix.Unix_error _ -> ());
    d.d_alive <- false
  end

let with_daemon d f = Fun.protect ~finally:(fun () -> kill_daemon d) (fun () -> f d)

type outcome = {
  o_kind : string;
  o_due : float;
  o_sent : float;
  o_done : float;
  mutable o_ok : bool;
  mutable o_note : string;
  o_proofs : (string * int64 * string) list;  (** model, seed, text *)
}

let prove_request fd ~seg ~model ~seeds =
  Wire.send_request fd
    (if seg then
       Wire.Prove_seg { tenant = "bench"; backend = B.Kzg; model; segments; seeds }
     else Wire.Prove { tenant = "bench"; backend = B.Kzg; model; seeds });
  match read_response fd with
  | Ok (Wire.Proofs texts) when List.length texts = List.length seeds ->
      (true, "", List.map2 (fun s t -> (model, s, t)) seeds texts)
  | Ok Wire.Overloaded -> (false, "refused: overloaded", [])
  | Ok (Wire.Verdict { code; detail }) ->
      (false, Printf.sprintf "prove %s: verdict %d: %s" model code detail, [])
  | Ok _ -> (false, "prove " ^ model ^ ": unexpected response", [])
  | Error e -> (false, "prove " ^ model ^ ": " ^ Zkml_util.Err.to_string e, [])

let verify_request fd ~model ~proof ~want =
  Wire.send_request fd (Wire.Verify { tenant = "bench"; model; proof });
  match read_response fd with
  | Ok (Wire.Verdict { code; _ }) when code = want -> (true, "")
  | Ok (Wire.Verdict { code; detail }) ->
      (false, Printf.sprintf "verify %s: verdict %d, wanted %d: %s" model code want detail)
  | Ok _ -> (false, "verify: unexpected response")
  | Error e -> (false, "verify: " ^ Zkml_util.Err.to_string e)

(* The verify corpus: (model, honest text, tampered text). *)
let run_op ~addr ~corpus fd_ref (op : H.op) =
  let fd = !fd_ref in
  match op with
  | H.Ping -> (
      Wire.send_request fd Wire.Ping;
      match read_response fd with
      | Ok Wire.Pong -> (true, "", [])
      | _ -> (false, "ping: no pong", []))
  | H.Prove { model; seeds } -> prove_request fd ~seg:false ~model ~seeds
  | H.Prove_seg { model; seed } -> prove_request fd ~seg:true ~model ~seeds:[ seed ]
  | H.Verify_good c ->
      let model, good, _ = corpus.(c) in
      let ok, note = verify_request fd ~model ~proof:good ~want:0 in
      (ok, note, [])
  | H.Verify_bad c ->
      let model, _, bad = corpus.(c) in
      let ok, note = verify_request fd ~model ~proof:bad ~want:1 in
      (ok, note, [])
  | H.Malformed flavor ->
      let (ok, note, _), keep = Zkml_serve.Loadgen.run_malformed fd flavor in
      (match keep with
      | `Drop ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          fd_ref := Zkml_serve.Server.connect addr
      | `Keep -> ());
      (ok, note, [])

(** Drive one daemon with the seeded open-loop schedule for [seconds]:
    each of [conns] connections takes the next arrival, waits for its
    due time, and times it from then. *)
let open_loop d ~seed ~seconds ~corpus ~conns =
  let ops =
    Array.of_list
      (H.schedule ~seed ~rate:serve_rate ~seconds ~mix:serve_mix
         ~corpus:(Array.length corpus) ~flavors:Zkml_serve.Loadgen.malformed_flavors)
  in
  let results = Array.make (Array.length ops) None in
  let next = Atomic.make 0 in
  let died = ref [] in
  let t_start = now () +. 0.05 in
  let client () =
    let fd_ref = ref (Zkml_serve.Server.connect d.d_addr) in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length ops then begin
        let a = ops.(i) in
        let due = t_start +. a.H.due_s in
        let wait = due -. now () in
        if wait > 0.0 then Thread.delay wait;
        let sent = now () in
        let ok, note, proofs = run_op ~addr:d.d_addr ~corpus fd_ref a.H.op in
        results.(i) <-
          Some
            { o_kind = H.op_kind a.H.op; o_due = due; o_sent = sent; o_done = now ();
              o_ok = ok; o_note = note; o_proofs = proofs };
        go ()
      end
    in
    (try go () with exn -> died := Printexc.to_string exn :: !died);
    try Unix.close !fd_ref with Unix.Unix_error _ -> ()
  in
  let threads = List.init conns (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  if !died <> [] then failwith ("client connection died: " ^ String.concat "; " !died);
  let outcomes = Array.to_list results |> List.filter_map Fun.id in
  if List.length outcomes <> Array.length ops then failwith "requests never ran";
  let t_end = List.fold_left (fun a o -> Float.max a o.o_done) t_start outcomes in
  (outcomes, t_end -. t_start)

(* Daemon-side numbers from its ZKML_METRICS snapshot. *)
let metrics_json path =
  let ic = open_in_bin path in
  let text = Fun.protect ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic)) in
  match Json.of_string text with
  | Ok j -> Option.value (Json.mem_list "metrics" j) ~default:[]
  | Error e -> failwith ("metrics snapshot: " ^ Zkml_util.Err.to_string e)

let series fams name =
  List.concat_map
    (fun f ->
      if Json.mem_string "name" f = Some name then
        Option.value (Json.mem_list "series" f) ~default:[]
      else [])
    fams

let label s k =
  Option.bind (Json.member "labels" s) (fun l -> Json.mem_string k l)

let sum_where fams name pred field =
  List.fold_left
    (fun acc s ->
      if pred s then acc +. Option.value (Json.mem_float field s) ~default:0.0 else acc)
    0.0 (series fams name)

(* Chrome-trace events of the daemon: (name, start_s, dur_s, args). *)
let trace_events path =
  let ic = open_in_bin path in
  let text = Fun.protect ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic)) in
  match Json.of_string text with
  | Error e -> failwith ("daemon trace: " ^ Zkml_util.Err.to_string e)
  | Ok j ->
      List.filter_map
        (fun ev ->
          match (Json.mem_string "name" ev, Json.mem_float "ts" ev, Json.mem_float "dur" ev) with
          | Some n, Some ts, Some dur ->
              let args =
                match Json.member "args" ev with
                | Some (Json.Obj kvs) ->
                    List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) kvs
                | _ -> []
              in
              Some (n, ts /. 1e6, dur /. 1e6, args)
          | _ -> None)
        (Option.value (Json.to_list j) ~default:[])

(* Most requests outstanding at once, client side: an upper bound on
   the daemon's queue depth (queued plus running). *)
let max_in_flight outcomes =
  let edges =
    List.concat_map (fun o -> [ (o.o_sent, 1); (o.o_done, -1) ]) outcomes
    |> List.sort compare
  in
  snd (List.fold_left (fun (cur, hi) (_, d) -> (cur + d, max hi (cur + d))) (0, 0) edges)

let run_serve (a : args) =
  let conns = min 2 (max 1 (nproc ())) in
  let n_setups = if a.smoke || a.trace then 1 else setup_repeats in
  (* set-up: a fresh daemon on an empty cache each time; all but the
     last are shut down again *)
  let setups = ref [] in
  for i = 1 to n_setups - 1 do
    let d, s = spawn_daemon ~name:(Printf.sprintf "serve-setup-%d" i) ~trace:false in
    with_daemon d (fun d -> ignore (stop_daemon d));
    setups := s :: !setups
  done;
  let params = ref None in
  let misses = ref [] in
  let miss s = misses := s :: !misses in
  let mono_rows = Hashtbl.create 4 in
  (* One daemon's life: set-up, warm-up, the timed window, shutdown. *)
  let daemon_run ~name ~trace ~seconds =
    let d, setup_s = spawn_daemon ~name ~trace in
    with_daemon d (fun d ->
        let params =
          match !params with
          | Some p -> p
          | None ->
              let p = Lazy.force B.kzg_params in
              params := Some p;
              p
        in
        (* warm-up: one prove per model and kind, then every corpus
           verify once; the benchmark checks the corpus itself with keys
           it rebuilds from each proof's header *)
        let fd = Zkml_serve.Server.connect d.d_addr in
        let warm_seed i = H.request_seed ~seed:a.seed ~stream:9 i in
        let timed kind f =
          let t0 = now () in
          let ok, note, proofs = f () in
          { o_kind = kind; o_due = t0; o_sent = t0; o_done = now (); o_ok = ok;
            o_note = note; o_proofs = proofs }
        in
        let warm =
          List.concat
            (List.mapi
               (fun i (model, seg) ->
                 let p =
                   timed (if seg then "prove_seg" else "prove") (fun () ->
                       prove_request fd ~seg ~model ~seeds:[ warm_seed i ])
                 in
                 match p.o_proofs with
                 | [ (_, _, text) ] ->
                     p
                     :: List.map
                          (fun (proof, want) ->
                            timed "verify" (fun () ->
                                let ok, note = verify_request fd ~model ~proof ~want in
                                (ok, note, [])))
                          [ (text, 0); (Zkml_serve.Loadgen.tamper_proof text, 1) ]
                 | _ -> failwith ("warm-up: " ^ p.o_note))
               [ ("dlrm", false); (corpus_model, false); (seg_model, true) ])
        in
        (* the timed verifies all judge one monolithic proof, so their
           latencies form one cluster per daemon state *)
        let corpus =
          List.filter_map
            (fun o ->
              match o.o_proofs with
              | [ (model, _, text) ] when model = corpus_model
                                          && not (Seg_proof.looks_segmented text) ->
                  Some (model, text, Zkml_serve.Loadgen.tamper_proof text)
              | _ -> None)
            warm
          |> Array.of_list
        in
        Unix.close fd;
        List.iter
          (fun o ->
            List.iter
              (fun (model, _, text) ->
                match Pf.of_string text with
                | Ok pf ->
                    let mdl = Zoo.by_name model in
                    Hashtbl.replace mono_rows model
                      ( content_rows mdl ~spec:pf.Pf.pf_spec ~ncols:pf.Pf.pf_ncols
                          ~k:pf.Pf.pf_k,
                        pf.Pf.pf_k )
                | Error _ -> ())
              o.o_proofs)
          warm;
        let outcomes, wall = open_loop d ~seed:a.seed ~seconds ~corpus ~conns in
        let rss = stop_daemon d in
        (setup_s, params, warm, outcomes, wall, rss, d))
  in
  let check_proofs ?(time_batch = false) params outcomes =
    (* the oracle over every proof the window returned: public values
       against Quant_exec, acceptance by rebuilt keys (one verify_many
       batch per model and header) *)
    let groups = Hashtbl.create 4 in
    let seg_kzg = Hashtbl.create 8 and seg_ipa = Hashtbl.create 8 in
    let bytes = ref [] in
    List.iter
      (fun o ->
        List.iter
          (fun (model, seed, text) ->
            let mdl = Zoo.by_name model in
            let inputs = Zoo.sample_inputs ~seed mdl in
            let bad note =
              o.o_ok <- false;
              o.o_note <- note
            in
            if Seg_proof.looks_segmented text then begin
              match Seg_proof.of_string text with
              | Error e -> bad ("segmented proof does not parse: " ^ Zkml_util.Err.to_string e)
              | Ok sp ->
                  bytes := float_of_int (Array.fold_left (fun acc g -> acc + String.length g.Seg_proof.sg_proof) 0 sp.Seg_proof.sp_groups) :: !bytes;
                  (match Seg_proof.verdict ~kzg_keys:seg_kzg ~ipa_keys:seg_ipa mdl sp with
                  | `Accepted -> ()
                  | _ -> bad (model ^ ": honest segmented proof not accepted"));
                  let groups = sp.Seg_proof.sp_groups in
                  if not (outputs_in (expected_public mdl inputs) groups.(Array.length groups - 1).Seg_proof.sg_instance)
                  then bad (model ^ ": segmented outputs differ from Quant_exec")
            end
            else
              match Pf.of_string text with
              | Error e -> bad ("proof does not parse: " ^ Zkml_util.Err.to_string e)
              | Ok pf ->
                  bytes := float_of_int (String.length pf.Pf.pf_proof) :: !bytes;
                  if pf.Pf.pf_model <> model then bad "proof for the wrong model";
                  if not (instance_matches (expected_public mdl inputs) pf.Pf.pf_instance) then
                    bad (model ^ ": public values differ from Quant_exec");
                  let key = (model, Zkml_compiler.Layout_spec.to_string pf.Pf.pf_spec, pf.Pf.pf_ncols, pf.Pf.pf_k) in
                  let prev = Option.value (Hashtbl.find_opt groups key) ~default:[] in
                  Hashtbl.replace groups key ((pf, o) :: prev))
          o.o_proofs)
      outcomes;
    let batches =
      Hashtbl.fold
        (fun (model, _, _, _) members acc ->
          let mdl = Zoo.by_name model in
          let pf0 = fst (List.hd members) in
          let keys =
            B.Pipe_kzg.rebuild_keys params ~spec:pf0.Pf.pf_spec ~ncols:pf0.Pf.pf_ncols
              ~k:pf0.Pf.pf_k ~cfg:pf0.Pf.pf_cfg mdl.Zoo.graph
          in
          (model, keys, members) :: acc)
        groups []
    in
    (* the oracle: one verify_many per model, a member-by-member verdict
       if it fails *)
    List.iter
      (fun (model, keys, members) ->
        let batch = List.map (fun (pf, _) -> (pf.Pf.pf_instance, pf.Pf.pf_proof)) members in
        if B.Pipe_kzg.verify_many_verdict params keys ~batch <> B.Pipe_kzg.Proto.Accepted then
          List.iter
            (fun (pf, o) ->
              match B.Pipe_kzg.verify_verdict params keys ~instance_ints:pf.Pf.pf_instance pf.Pf.pf_proof with
              | B.Pipe_kzg.Proto.Accepted -> ()
              | v ->
                  o.o_ok <- false;
                  o.o_note <- model ^ ": honest proof " ^ B.Pipe_kzg.Proto.verdict_string v)
            members)
      batches;
    let batch_n = List.fold_left (fun acc (_, _, m) -> acc + List.length m) 0 batches in
    let batch_s =
      if batch_n = 0 || not time_batch then 0.0
      else begin
        let batches =
          List.map
            (fun (_, keys, members) ->
              (keys, List.map (fun (pf, _) -> (pf.Pf.pf_instance, pf.Pf.pf_proof)) members))
            batches
        in
        Gc.full_major ();
        let s, _ =
          mean_pass (fun () ->
              let t0 = now () in
              List.iter
                (fun (keys, batch) -> ignore (B.Pipe_kzg.verify_many_verdict params keys ~batch))
                batches;
              now () -. t0)
        in
        s /. float_of_int batch_n
      end
    in
    (!bytes, batch_s, batch_n)

  in
  let kinds_lat outcomes pred =
    List.filter_map (fun o -> if pred o.o_kind then Some (o.o_done -. o.o_due) else None) outcomes
  in
  let is_prove k = k = "prove" || k = "prove_seg" in
  (* every wrong, failed or refused answer is a miss *)
  let record_misses outcomes =
    List.iter (fun o -> if not o.o_ok then miss (o.o_kind ^ ": " ^ o.o_note)) outcomes
  in
  let summarize outcomes wall =
    let attempted = List.length outcomes in
    let failed = List.length (List.filter (fun o -> not o.o_ok) outcomes) in
    let proofs = List.fold_left (fun acc o -> acc + List.length o.o_proofs) 0 outcomes in
    (attempted, failed, proofs, wall)
  in
  if not a.trace then begin
    let setup_s, params, warm, outcomes, wall, rss, _ =
      daemon_run ~name:"serve-run" ~trace:false ~seconds:a.seconds
    in
    ignore (check_proofs params warm);
    let bytes, batch_s, batch_n = check_proofs ~time_batch:true params outcomes in
    let input_ok, probe_note = input_probe (List.map Zoo.by_name serve_models) ~seed:a.seed in
    record_misses (warm @ outcomes);
    let attempted, failed, proofs, wall = summarize outcomes wall in
    let warm_attempted, warm_failed, _, _ = summarize warm 0.0 in
    let slo_ok =
      List.length
        (List.filter (fun o -> o.o_ok && o.o_done -. o.o_due <= slo_of_kind o.o_kind) outcomes)
    in
    let pm, pnote = timing_metrics ~kind:"prove" (kinds_lat outcomes is_prove) in
    let vm, vnote = timing_metrics ~kind:"verify" (kinds_lat outcomes (( = ) "verify")) in
    let setups = H.sorted (setup_s :: !setups) in
    {
      r_attempted = attempted + warm_attempted;
      r_failed = failed + warm_failed;
      r_misses = List.rev !misses;
      r_metrics =
        [ m "setup_s" "s" (H.median setups);
          m "proofs_per_s" "1/s" (float_of_int proofs /. wall) ]
        @ pm @ vm
        @ [ m "verify_batch_per_proof_s" "s" batch_s;
            m "proof_bytes" "bytes" (H.mean bytes);
            m "peak_rss_mb" "MB" rss;
            m "ok_frac" "frac" (float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
            m "input_ok_frac" "frac" input_ok;
            m "slo_ok_frac" "frac" (float_of_int slo_ok /. float_of_int (max 1 attempted)) ];
      r_notes =
        [ Printf.sprintf "window: %.3f s, %d requests over %d connection(s), %d proofs"
            wall attempted conns proofs;
          pnote; vnote;
          Printf.sprintf "setup_s: n=%d values=[%s]" (Array.length setups)
            (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.4f") setups)));
          Printf.sprintf "verify_many: %d proofs, %.6f s per proof" batch_n batch_s;
          Printf.sprintf "failed_frac: %.6f (%d of %d)"
            (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
          probe_note ];
    }
  end
  else begin
    (* the traced run: half the window on a plain daemon, half on a
       traced one with the same schedule; the latency ratio is the
       trace overhead, the traced daemon gives the per-layer numbers *)
    let half = a.seconds /. 2.0 in
    let _, params, warm1, plain, _, _, _ = daemon_run ~name:"serve-plain" ~trace:false ~seconds:half in
    ignore (check_proofs params (warm1 @ plain));
    record_misses (warm1 @ plain);
    let _, _, warm2, traced, wall, _, d = daemon_run ~name:"serve-traced" ~trace:true ~seconds:half in
    ignore (check_proofs params (warm2 @ traced));
    record_misses (warm2 @ traced);
    let attempted, failed, _, _ = summarize (warm1 @ plain @ warm2 @ traced) wall in
    let events = trace_events (Option.get d.d_trace) in
    let forest = H.forest_of_events events in
    (* the daemon warms its models before it listens: those first
       top-level prepares are its set-up *)
    let setup_spans =
      List.filteri (fun i _ -> i < List.length serve_models)
        (List.filter (fun sp -> sp.H.sp_name = "serve.prepare") forest)
    in
    let request_forest = List.filter (fun sp -> not (List.memq sp setup_spans)) forest in
    (* verifies are top-level spans of the daemon; everything else a
       request runs is prove side *)
    let verify_side = H.find_all "verify" request_forest in
    let prove_side = List.filter (fun sp -> sp.H.sp_name <> "verify") request_forest in
    let in_setup name = List.fold_left (fun acc sp -> acc +. total_in sp name) 0.0 setup_spans in
    let fams = metrics_json d.d_metrics in
    let req_sum kind field =
      sum_where fams "zkml_server_request_seconds" (fun s -> label s "kind" = Some kind) field
    in
    let server_s = List.fold_left (fun acc k -> acc +. req_sum k "sum") 0.0 [ "prove"; "prove_seg"; "verify" ] in
    let top_s = List.fold_left (fun acc sp -> acc +. span_dur sp) 0.0 request_forest in
    let hits = sum_where fams "zkml_cache_lookups_total"
        (fun s -> label s "status" = Some "hit_mem" || label s "status" = Some "hit_disk") "value"
    and lookups = sum_where fams "zkml_cache_lookups_total" (fun _ -> true) "value" in
    let lat os = H.mean (kinds_lat os is_prove) in
    let lags = H.sorted (List.map (fun o -> o.o_sent -. o.o_due) traced) in
    let prove_outcomes = List.filter (fun o -> o.o_kind = "prove") traced in
    let rows_k =
      List.concat_map (fun o -> List.map (fun (model, _, _) -> Hashtbl.find mono_rows model) o.o_proofs) prove_outcomes
    in
    (* the daemon's snapshot covers its warm-up requests too *)
    let client_mean kind =
      H.mean
        (List.filter_map
           (fun o -> if o.o_kind = kind then Some (o.o_done -. o.o_sent) else None)
           (warm2 @ traced))
    in
    let extra kind =
      let cnt = req_sum kind "count" in
      let srv = if cnt > 0.0 then req_sum kind "sum" /. cnt else 0.0 in
      [ Printf.sprintf "extra serve.server_request_%s_s %.6f s" kind srv;
        Printf.sprintf "extra serve.wire_overhead_%s_s %.6f s" kind (client_mean kind -. srv) ]
    in
    let seg_sp = sum_where fams "zkml_segment_seconds" (fun s -> label s "phase" = Some "prove") "sum"
    and seg_n = sum_where fams "zkml_segment_seconds" (fun s -> label s "phase" = Some "prove") "count" in
    let seg_groups =
      List.concat_map (fun o -> o.o_proofs) warm2
      |> List.filter_map (fun (_, _, text) ->
             match Seg_proof.of_string text with
             | Ok sp -> Some (Array.length sp.Seg_proof.sp_groups)
             | Error _ -> None)
    in
    let peak_rows = sum_where fams "zkml_segment_peak_rows" (fun _ -> true) "value" in
    {
      r_attempted = attempted;
      r_failed = failed;
      r_misses = List.rev !misses;
      r_metrics =
        layer_metrics ~prove_side ~verify_side
        @ [
            m "commit.srs_setup_s" "s"
              (match setup_spans with sp :: _ -> sp.H.sp_start | [] -> 0.0);
            m "plonkish.keygen_s" "s" (in_setup "keygen");
            m "compiler.calibrate_s" "s" (in_setup "calibrate");
            m "compiler.optimize_s" "s" (in_setup "optimize");
            m "compiler.optimizer_candidates" "count"
              (H.counter_sum "optimizer.candidates" setup_spans);
            m "compiler.rows" "count" (H.mean (List.map (fun (r, _) -> float_of_int r) rows_k));
            m "compiler.k" "count" (H.mean (List.map (fun (_, k) -> float_of_int k) rows_k));
            m "serve.cache_hit_frac" "frac" (if lookups > 0.0 then hits /. lookups else 0.0);
            m "bench.gen_lag_p99_s" "s" (H.percentile lags ~p_tenths:990);
            m "bench.trace_overhead_frac" "frac" (lat traced /. lat plain -. 1.0);
            m "bench.untraced_frac" "frac"
              (if server_s > 0.0 then Float.max 0.0 (1.0 -. (top_s /. server_s)) else 0.0);
          ];
      r_notes =
        List.concat_map extra [ "prove"; "prove_seg"; "verify" ]
        @ [
            Printf.sprintf "extra serve.overloaded %.0f count"
              (sum_where fams "zkml_server_rejected_total" (fun _ -> true) "value");
            Printf.sprintf "extra serve.queue_depth_max %d count" (max_in_flight traced);
            Printf.sprintf "extra compiler.segment_count %d count"
              (match seg_groups with g :: _ -> g | [] -> 0);
            Printf.sprintf "extra compiler.segment_peak_rows %.0f count" peak_rows;
            Printf.sprintf "extra compiler.segment_prove_s %.6f s (per segment, %.0f segments)"
              (if seg_n > 0.0 then seg_sp /. seg_n else 0.0) seg_n;
          ];
    }
  end

(* ------------------------------------------------------------------ *)
(* Entry point *)

let inproc_workloads =
  [
    ( "prove-kzg",
      ( B.Kzg,
        {
          ic_models = [ "mnist"; "gpt2"; "twitter"; "dlrm"; "diffusion" ];
          ic_round_s = 7.0;
          ic_verifies = 5;
          ic_slo_prove_s = 8.0;
          ic_slo_verify_s = 0.5;
        } ) );
    ( "ipa-verify",
      ( B.Ipa,
        {
          ic_models = [ "dlrm"; "mnist"; "gpt2" ];
          ic_round_s = 3.3;
          ic_verifies = 3;
          ic_slo_prove_s = 4.0;
          ic_slo_verify_s = 2.0;
        } ) );
  ]

let workloads = List.map fst inproc_workloads @ [ "serve-mixed" ]

(* A fresh process on an empty cache for each extra set-up. *)
let child_setups (a : args) n =
  List.init n (fun i ->
      let dir = fresh_dir (Printf.sprintf "setup-%d" i) in
      let out = Filename.concat dir "setup_s" in
      let env =
        (Unix.environment () |> Array.to_list
        |> List.filter (fun kv -> not (starts_with "ZKML_" kv)))
        @ [ "ZKML_CACHE_DIR=" ^ Filename.concat dir "cache"; "ZKML_JOBS=1" ]
      in
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      let pid =
        Unix.create_process_env Sys.executable_name
          [| Sys.executable_name; "--child-setup"; "--workload"; a.workload;
             "--seed"; string_of_int a.seed |]
          (Array.of_list env) Unix.stdin fd Unix.stderr
      in
      Unix.close fd;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "set-up child failed");
      let ic = open_in out in
      let v = float_of_string (String.trim (input_line ic)) in
      close_in ic;
      v)

let run_inproc (a : args) backend cfg =
  let other_setups =
    if a.smoke || a.trace then [] else child_setups a (setup_repeats - 1)
  in
  Unix.putenv "ZKML_CACHE_DIR" (Filename.concat (fresh_dir "inproc") "cache");
  Zkml_util.Pool.set_jobs 1;
  match backend with
  | B.Kzg -> Kzg_run.run cfg a ~other_setups
  | B.Ipa -> Ipa_run.run cfg a ~other_setups

let main () =
  let a =
    try parse_args () with
    | Arg.Bad msg | Arg.Help msg ->
        prerr_string msg;
        exit 2
  in
  if not (List.mem a.workload workloads) then begin
    Printf.eprintf "unknown workload %S (one of: %s)\n" a.workload
      (String.concat ", " workloads);
    exit 2
  end;
  if a.child_setup then begin
    (* a child: one cold set-up, its seconds on stdout *)
    Zkml_util.Pool.set_jobs 1;
    let backend, cfg = List.assoc a.workload inproc_workloads in
    let s =
      match backend with
      | B.Kzg -> Kzg_run.setup_only cfg.ic_models
      | B.Ipa -> Ipa_run.setup_only cfg.ic_models
    in
    Printf.printf "%.17g\n" s;
    exit 0
  end;
  log "perfbench: workload=%s seed=%d seconds=%g trace=%b nproc=%d ocaml=%s \
       pool_jobs=1 daemon_workers=%d"
    a.workload a.seed a.seconds a.trace (nproc ()) Sys.ocaml_version daemon_workers;
  let r =
    if a.workload = "serve-mixed" then run_serve a
    else
      let backend, cfg = List.assoc a.workload inproc_workloads in
      run_inproc a backend cfg
  in
  List.iter (fun n -> print_endline ("# " ^ n)) (r.r_notes @ [ out_of_range_note () ]);
  List.iter
    (fun mt -> Printf.printf "# %-34s %14.6g %s\n" mt.H.m_name mt.H.m_value mt.H.m_unit)
    r.r_metrics;
  List.iter (fun s -> print_endline ("# MISS " ^ s)) r.r_misses;
  if not (H.conforms (if a.trace then H.per_layer else H.end_to_end) r.r_metrics) then
    failwith "the run's metrics differ from the list in Harness";
  let correct = r.r_misses = [] in
  print_endline
    (H.result_line ~correct ~attempted:r.r_attempted ~failed:r.r_failed r.r_metrics);
  rm_rf run_root;
  (try Unix.rmdir run_base with Unix.Unix_error _ -> ());
  exit (if correct then 0 else 1)

let () = main ()
