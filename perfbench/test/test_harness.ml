(* Self-tests of the benchmark harness: the tail rule, self-time
   arithmetic, schedule and input determinism, the metric-name grammar
   and the result line. *)

module H = Harness
module Json = Zkml_util.Json

let range n = H.sorted (List.init n (fun i -> float_of_int (i + 1)))

(* ---- tail rule: the highest percentile with >= 10 samples beyond ---- *)

let test_tail_rule () =
  let check n label value beyond =
    let t = H.tail (range n) in
    Alcotest.(check string) (Printf.sprintf "label n=%d" n) label t.H.tl_label;
    Alcotest.(check (float 0.0)) (Printf.sprintf "value n=%d" n) value t.H.tl_value;
    Alcotest.(check int) (Printf.sprintf "beyond n=%d" n) beyond t.H.tl_beyond
  in
  check 19 "max" 19.0 0;
  check 20 "p50" 10.0 10;
  check 39 "p50" 20.0 19;
  check 40 "p75" 30.0 10;
  check 99 "p75" 75.0 24;
  check 100 "p90" 90.0 10;
  check 1000 "p99" 990.0 10;
  check 10_000 "p99.9" 9990.0 10;
  (* every reported percentile leaves at least ten samples beyond it *)
  for n = 20 to 400 do
    let t = H.tail (range n) in
    Alcotest.(check bool) (Printf.sprintf "beyond >= 10 at n=%d" n) true
      (t.H.tl_beyond >= H.min_beyond
      && n - int_of_float t.H.tl_value = t.H.tl_beyond)
  done

let test_percentile () =
  Alcotest.(check (float 0.0)) "median of 1..5" 3.0 (H.median (range 5));
  Alcotest.(check (float 0.0)) "median of 1..4" 2.0 (H.median (range 4));
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0
    (H.percentile (range 100) ~p_tenths:990)

(* ---- self time on a synthetic span tree ---- *)

let sp ?(counters = []) name a b kids =
  { H.sp_name = name; sp_start = a; sp_stop = b; sp_counters = counters; sp_children = kids }

let tree =
  (* a request [0,10]: a prove [1,9] whose phases overlap each other
     and one spills past the parent; an untraced gap [9,10] *)
  sp "bench.prove" 0.0 10.0
    [
      sp "prove" 1.0 9.0
        [
          sp "quotient" 2.0 5.0 [ sp "ntt" 2.0 3.0 []; sp "ntt" 4.0 4.5 [] ];
          sp "msm" 4.0 6.0 [];
          sp "open" 8.0 9.5 [ sp "msm" 8.5 9.0 [] ];
        ];
    ]

let test_self_time () =
  let close = Alcotest.(check (float 1e-12)) in
  (* covered: [2,6] U [8,9] = 5 of 8 *)
  close "prove self" 3.0 (H.self_time (List.hd tree.H.sp_children));
  close "quotient self" 1.5
    (H.self_time (List.hd (List.hd tree.H.sp_children).H.sp_children));
  close "leaf self is its duration" 2.0 (H.self_time (sp "msm" 4.0 6.0 []));
  close "request self (untraced)" 2.0 (H.self_time tree);
  let self = H.layer_self_times [ tree ] in
  close "plonkish layer" 4.5 (self "plonkish");
  close "poly layer" 1.5 (self "poly");
  close "ec layer" 2.5 (self "ec");
  close "commit layer" 1.0 (self "commit");
  close "benchmark's own" 2.0 (self "");
  close "cover of prove" (5.0 /. 8.0)
    (H.child_cover_frac (List.hd tree.H.sp_children))

(* Flat events rebuild a properly nested tree exactly. *)
let test_forest_of_events () =
  let nested =
    sp "bench.prove" 0.0 10.0
      [
        sp "prove" 1.0 9.0
          [
            sp "quotient" 2.0 5.0
              [ sp ~counters:[ ("ntt.size", 512.0) ] "ntt" 2.0 3.0 [];
                sp ~counters:[ ("ntt.size", 2048.0) ] "ntt" 4.0 4.5 [] ];
            sp "open" 6.0 8.5 [ sp ~counters:[ ("msm.points", 9.0) ] "msm" 7.0 8.0 [] ];
          ];
        sp ~counters:[ ("pcs.final_check", 1.0) ] "verify" 9.0 9.5 [];
      ]
  in
  let rec flatten sp =
    (sp.H.sp_name, sp.H.sp_start, sp.H.sp_stop -. sp.H.sp_start, sp.H.sp_counters)
    :: List.concat_map flatten sp.H.sp_children
  in
  let rebuilt = H.forest_of_events (List.rev (flatten nested)) in
  Alcotest.(check bool) "same tree" true (rebuilt = [ nested ]);
  Alcotest.(check (float 0.0)) "counters summed over the tree" 2560.0
    (H.counter_sum "ntt.size" rebuilt);
  Alcotest.(check (float 0.0)) "counters of a subtree" 0.0
    (H.counter_sum "ntt.size" (H.find_all "verify" rebuilt));
  let self = H.layer_self_times rebuilt and self0 = H.layer_self_times [ nested ] in
  List.iter
    (fun l -> Alcotest.(check (float 1e-12)) ("layer " ^ l) (self0 l) (self l))
    [ ""; "poly"; "ec"; "commit"; "plonkish"; "compiler"; "serve" ]

(* ---- same seed, same schedule and inputs ---- *)

let mix =
  H.[ (K_seg "mnist", 1.0); (K_prove "dlrm", 2.0); (K_verify_good, 3.0);
      (K_verify_bad, 3.0); (K_malformed, 2.0); (K_ping, 1.0) ]

let sched seed = H.schedule ~seed ~rate:4.0 ~seconds:5.0 ~mix ~corpus:2 ~flavors:5

let test_schedule () =
  Alcotest.(check bool) "same seed, same schedule" true (sched 7 = sched 7);
  Alcotest.(check bool) "other seed, other due times" true
    (List.map (fun a -> a.H.due_s) (sched 7) <> List.map (fun a -> a.H.due_s) (sched 8));
  Alcotest.(check bool) "other seed, other order" true
    (List.map (fun a -> H.op_kind a.H.op) (sched 7)
    <> List.map (fun a -> H.op_kind a.H.op) (sched 8));
  let s = sched 7 in
  (* 20 arrivals over weights summing to 12: 2 + 3 + 5 + 5 + 3 + 2 *)
  Alcotest.(check int) "counts follow the weights" 20 (List.length s);
  let count kind = List.length (List.filter (fun a -> H.op_kind a.H.op = kind) s) in
  Alcotest.(check (list int)) "per kind" [ 3; 2; 10; 3; 2 ]
    (List.map count [ "prove"; "prove_seg"; "verify"; "malformed"; "ping" ]);
  let dues = List.map (fun a -> a.H.due_s) s in
  Alcotest.(check bool) "due times increase" true
    (List.for_all2 ( < ) (0.0 :: List.filteri (fun i _ -> i < 19) dues) dues);
  (* a long schedule's mean gap is close to 1/rate *)
  let long = H.schedule ~seed:3 ~rate:10.0 ~seconds:200.0 ~mix ~corpus:2 ~flavors:5 in
  let last = (List.nth long (List.length long - 1)).H.due_s in
  Alcotest.(check bool) "mean rate near the target" true
    (Float.abs ((float_of_int (List.length long) /. last) -. 10.0) < 1.0)

let test_inputs () =
  let m = Zkml_models.Zoo.by_name "dlrm" in
  let inputs seed = Zkml_models.Zoo.sample_inputs ~seed m in
  let s1 = H.request_seed ~seed:3 ~stream:0 5 and s2 = H.request_seed ~seed:3 ~stream:0 5 in
  Alcotest.(check int64) "request seed is a function of its arguments" s1 s2;
  Alcotest.(check bool) "streams differ" true
    (H.request_seed ~seed:3 ~stream:0 5 <> H.request_seed ~seed:3 ~stream:1 5);
  Alcotest.(check bool) "same seed, same inputs" true (inputs s1 = inputs s2)

(* ---- metric-name grammar and the result line ---- *)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid " ^ n) true (H.valid_name n))
    [ "setup_s"; "poly.ntt_s"; "bench.gen_lag_p99_s"; "9lives"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid " ^ n) false (H.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; String.make 65 'a'; "é" ];
  List.iter
    (fun u -> Alcotest.(check bool) ("unit " ^ u) true (H.valid_unit u))
    [ "s"; "ms"; "1/s"; "%"; "count"; "MB"; "frac" ];
  Alcotest.(check bool) "unit too long" false (H.valid_unit (String.make 17 's'));
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("reported name " ^ n) true (H.valid_name n && H.valid_unit u))
    (H.end_to_end @ H.per_layer);
  let names = List.map fst (H.end_to_end @ H.per_layer) in
  Alcotest.(check int) "names used once" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_result_line () =
  let line =
    H.result_line ~correct:true ~attempted:12 ~failed:0
      [ { H.m_name = "setup_s"; m_value = 0.1 +. 0.2; m_unit = "s" };
        { H.m_name = "proof_bytes"; m_value = 2848.0; m_unit = "bytes" } ]
  in
  match Json.of_string line with
  | Error e -> Alcotest.fail (Zkml_util.Err.to_string e)
  | Ok j ->
      Alcotest.(check (option int)) "attempted" (Some 12) (Option.bind (Json.member "attempted" j) Json.to_int);
      let v =
        Option.bind (Json.member "metrics" j) (fun ms ->
            Option.bind (Json.member "setup_s" ms) (Json.mem_float "value"))
      in
      Alcotest.(check (option (float 0.0))) "every digit kept" (Some (0.1 +. 0.2)) v;
      Alcotest.check_raises "bad name refused" (Invalid_argument "bad metric name: x y")
        (fun () ->
          ignore
            (H.result_line ~correct:true ~attempted:1 ~failed:0
               [ { H.m_name = "x y"; m_value = 1.0; m_unit = "s" } ]))

(* BENCHMARK.json names exactly the metrics the runner reports. *)
let test_benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string text with
  | Error e -> Alcotest.fail (Zkml_util.Err.to_string e)
  | Ok j ->
      let listed key =
        Option.value (Json.mem_list key j) ~default:[]
        |> List.map (fun m ->
               (Option.value (Json.mem_string "name" m) ~default:"",
                Option.value (Json.mem_string "unit" m) ~default:""))
      in
      Alcotest.(check (list (pair string string))) "end_to_end" H.end_to_end (listed "end_to_end");
      Alcotest.(check (list (pair string string))) "per_layer" H.per_layer (listed "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [ Alcotest.test_case "tail_rule" `Quick test_tail_rule;
          Alcotest.test_case "percentile" `Quick test_percentile ] );
      ( "spans",
        [ Alcotest.test_case "self_time" `Quick test_self_time;
          Alcotest.test_case "forest_of_events" `Quick test_forest_of_events ] );
      ( "seeds",
        [ Alcotest.test_case "schedule" `Quick test_schedule;
          Alcotest.test_case "inputs" `Quick test_inputs ] );
      ( "output",
        [ Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "result_line" `Quick test_result_line;
          Alcotest.test_case "benchmark_json" `Quick test_benchmark_json ] );
    ]
