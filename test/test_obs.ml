(* The sim-time observability layer: the metrics registry, log-scale
   histogram quantiles against a naive sort, the bounded span ring, the
   Chrome trace export's well-formedness, and end-to-end determinism of
   a testbed's registry across two identical seeded runs. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_counters_and_gauges () =
  let o = Obs.create () in
  let c = Obs.Counter.make o "a.b" in
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  Alcotest.(check int) "count" 5 (Obs.Counter.get c);
  (* make is find-or-create: a second handle shares the cell *)
  let c' = Obs.Counter.make o "a.b" in
  Obs.Counter.incr c';
  Alcotest.(check int) "shared" 6 (Obs.Counter.get c);
  let g = Obs.Gauge.make o "g" in
  Obs.Gauge.set g 7;
  Obs.Gauge.add g (-2);
  Alcotest.(check int) "gauge" 5 (Obs.Gauge.get g);
  (* the same name cannot be two kinds *)
  (match Obs.Gauge.make o "a.b" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  (* reset zeroes in place; handles stay valid *)
  Obs.reset o;
  Alcotest.(check int) "reset" 0 (Obs.Counter.get c);
  Obs.Counter.incr c;
  Alcotest.(check int) "handle survives reset" 1 (Obs.Counter.get c);
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("a.b", 1) ]
    (Obs.counters o)

(* Quantiles against a naive sorted-array rank lookup: buckets are exact
   below 64 and log-linear (32 sub-buckets per octave) above, so the
   estimate must sit in [exact, exact * (1 + 1/32)] after clamping. *)
let test_histogram_quantiles () =
  let o = Obs.create () in
  let h = Obs.Histogram.make o "h_ms" in
  let rng = Sim.Rng.create 7 in
  let n = 5000 in
  let samples =
    Array.init n (fun i ->
        match i mod 3 with
        | 0 -> Sim.Rng.int rng 50 (* exact range *)
        | 1 -> Sim.Rng.int rng 10_000
        | _ -> Sim.Rng.int rng 1_000_000)
  in
  Array.iter (Obs.Histogram.observe h) samples;
  Array.sort compare samples;
  Alcotest.(check int) "count" n (Obs.Histogram.count h);
  Alcotest.(check int)
    "sum" (Array.fold_left ( + ) 0 samples)
    (Obs.Histogram.sum h);
  List.iter
    (fun q ->
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      let rank = if rank < 1 then 1 else if rank > n then n else rank in
      let exact = samples.(rank - 1) in
      let est = Obs.Histogram.quantile h q in
      let hi = exact + (exact / 32) + 1 in
      if not (est >= exact && est <= hi) then
        Alcotest.failf "q=%.3f: estimate %d outside [%d, %d]" q est exact hi)
    [ 0.01; 0.10; 0.25; 0.50; 0.75; 0.90; 0.95; 0.99; 1.0 ]

let test_span_ring_overflow () =
  let o = Obs.create ~ring:4 () in
  let t = ref 0 in
  Obs.set_clock o (fun () -> !t);
  for i = 1 to 10 do
    t := i * 10;
    let s = Obs.span_begin o (Printf.sprintf "s%d" i) in
    t := (i * 10) + 5;
    Obs.span_end o s
  done;
  let spans = Obs.completed_spans o in
  Alcotest.(check int) "ring bounds completed spans" 4 (List.length spans);
  Alcotest.(check string)
    "oldest dropped, order kept" "s7"
    (List.hd spans).Obs.sp_name;
  Alcotest.(check string)
    "newest kept" "s10"
    (List.nth spans 3).Obs.sp_name

let test_span_parentage () =
  let o = Obs.create () in
  let t = ref 0 in
  Obs.set_clock o (fun () -> !t);
  Obs.with_span o "outer" (fun () ->
      t := 3;
      Obs.with_span o "inner" (fun () -> t := 9));
  match Obs.completed_spans o with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner first (closed first)" "inner"
        inner.Obs.sp_name;
      Alcotest.(check (option string))
        "parent linked" (Some "outer") inner.Obs.sp_parent;
      Alcotest.(check (option string)) "root" None outer.Obs.sp_parent;
      Alcotest.(check int) "outer duration" 9 outer.Obs.sp_dur_ms
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

(* The exported stream must be loadable by Chrome: every B has its E,
   nesting never goes negative, and timestamps never step backwards —
   including when spans close out of LIFO order (the CPS style of the
   server) and when a span is still open at export time. *)
let test_trace_well_formed () =
  let o = Obs.create () in
  let t = ref 0 in
  Obs.set_clock o (fun () -> !t);
  let a = Obs.span_begin o "a" in
  t := 5;
  let b = Obs.span_begin o "b" in
  t := 8;
  Obs.span_end o a;
  (* non-LIFO: a closes before b *)
  t := 12;
  Obs.span_end o b;
  t := 20;
  Obs.instant o "blip";
  ignore (Obs.span_begin o "still_open");
  t := 25;
  let evs = Obs.trace_events o in
  let depth = ref 0 and last = ref min_int and pairs = ref 0 in
  List.iter
    (fun e ->
      match e.Obs.ph with
      | 'B' | 'E' ->
          if e.Obs.ph = 'B' then begin
            incr pairs;
            incr depth
          end
          else decr depth;
          Alcotest.(check bool) "depth never negative" true (!depth >= 0);
          Alcotest.(check bool) "timestamps non-decreasing" true
            (e.Obs.ts_us >= !last);
          last := e.Obs.ts_us
      | 'i' -> ()
      | ph -> Alcotest.failf "unexpected phase %c" ph)
    evs;
  Alcotest.(check int) "balanced B/E" 0 !depth;
  Alcotest.(check int) "all three spans exported" 3 !pairs;
  let json = Obs.trace_json o in
  Alcotest.(check bool) "trace json envelope" true
    (contains json "\"traceEvents\"");
  Alcotest.(check bool) "instant exported" true (contains json "\"blip\"")

let test_logs_bounded () =
  let o = Obs.create ~log_ring:3 () in
  for i = 1 to 5 do
    Obs.log o ~channel:"slow_query" (Printf.sprintf "m%d" i)
  done;
  Obs.log o ~channel:"other" "x";
  let l = Obs.logs o ~channel:"slow_query" () in
  (* ring holds 3 entries total; "other" evicted m3 *)
  Alcotest.(check (list string))
    "bounded, filtered, oldest first" [ "m4"; "m5" ]
    (List.map (fun e -> e.Obs.l_msg) l)

(* Two identical seeded testbed runs must leave byte-identical
   registries: every recorded duration is sim time, so wall clock can
   never leak into a metric. *)
let obs_fingerprint () =
  let tb = Workload.Testbed.create () in
  let ws =
    tb.Workload.Testbed.built.Workload.Population.workstation_machines.(0)
  in
  let c = Workload.Testbed.admin_client tb ~src:ws in
  let logins = tb.Workload.Testbed.built.Workload.Population.logins in
  for i = 0 to 5 do
    ignore
      (Moira.Mr_client.mr_query_list c ~name:"get_user_by_login"
         [ logins.(i mod Array.length logins) ])
  done;
  Workload.Testbed.run_minutes tb 20;
  Obs.dump (Workload.Testbed.obs tb)

let test_registry_determinism () =
  let d1 = obs_fingerprint () in
  let d2 = obs_fingerprint () in
  Alcotest.(check string) "identical fingerprints" d1 d2

(* ---- wire contexts: the ctx every protocol carries ---- *)

let test_ctx_wire () =
  let a = Obs.create () in
  Obs.set_origin a "client.mit.edu";
  let sp = Obs.span_begin a "client.query" in
  let ctx = Obs.span_ctx sp in
  (match Obs.current_ctx a with
  | Some c ->
      Alcotest.(check string) "current ctx is the open span" ctx.Obs.span_id
        c.Obs.span_id
  | None -> Alcotest.fail "open span not current");
  let wire = Obs.ctx_to_string ctx in
  (match Obs.ctx_of_string wire with
  | Some c ->
      Alcotest.(check string) "trace id over the wire" ctx.Obs.trace_id
        c.Obs.trace_id;
      Alcotest.(check string) "span id over the wire" ctx.Obs.span_id
        c.Obs.span_id
  | None -> Alcotest.fail "serialized ctx did not parse");
  Alcotest.(check bool) "empty ctx is None" true (Obs.ctx_of_string "" = None);
  Alcotest.(check bool) "malformed ctx is None" true
    (Obs.ctx_of_string "garbage" = None);
  (* a span on another host parented by the wire ctx joins the trace *)
  let b = Obs.create () in
  Obs.set_origin b "server.mit.edu";
  let ssp = Obs.span_begin b ?parent_ctx:(Obs.ctx_of_string wire) "query" in
  Obs.span_end b ssp;
  Obs.span_end a sp;
  match Obs.completed_spans b with
  | [ s ] ->
      Alcotest.(check string) "remote child joins the trace" ctx.Obs.trace_id
        s.Obs.sp_trace;
      Alcotest.(check (option string))
        "remote parent uid kept" (Some ctx.Obs.span_id) s.Obs.sp_parent_id
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_spans_dropped () =
  let o = Obs.create ~ring:4 () in
  for i = 1 to 10 do
    let s = Obs.span_begin o (Printf.sprintf "s%d" i) in
    Obs.span_end o s
  done;
  Alcotest.(check (option int))
    "evictions counted" (Some 6)
    (Obs.find_counter o "obs.spans.dropped");
  (* a child whose local parent was evicted is clamped to a root, not
     exported with a dangling reference *)
  let o = Obs.create ~ring:2 () in
  let p = Obs.span_begin o "parent" in
  Obs.span_end o p;
  let pctx = Obs.span_ctx p in
  List.iter
    (fun n ->
      let s = Obs.span_begin o n in
      Obs.span_end o s)
    [ "f1"; "f2" ];
  let c = Obs.span_begin o ~parent_ctx:pctx "child" in
  Obs.span_end o c;
  match Obs.completed_spans o with
  | [ _; child ] ->
      Alcotest.(check string) "child survived" "child" child.Obs.sp_name;
      Alcotest.(check (option string))
        "orphan clamped to root" None child.Obs.sp_parent_id
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

(* ---- stitching per-host lanes into one trace ---- *)

let test_merge_lanes () =
  let a = Obs.create () and b = Obs.create () in
  Obs.set_origin a "moira.mit.edu";
  Obs.set_origin b "suomi.mit.edu";
  let root = Obs.span_begin a "client.query" in
  let wire = Obs.ctx_to_string (Obs.span_ctx root) in
  let remote =
    Obs.span_begin b ?parent_ctx:(Obs.ctx_of_string wire) "update.exec"
  in
  Obs.span_end b remote;
  Obs.span_end a root;
  (* an unrelated second trace, for the filter below *)
  let other = Obs.span_begin a "noise" in
  Obs.span_end a other;
  let lanes = [ ("moira.mit.edu", a); ("suomi.mit.edu", b) ] in
  let json = Obs.merge_trace_json lanes in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("merged has " ^ needle) true (contains json needle))
    [
      "\"process_name\"";
      "moira.mit.edu";
      "suomi.mit.edu";
      "\"client.query\"";
      "\"update.exec\"";
      (* the cross-lane parent link renders as a flow arrow pair *)
      "\"ph\":\"s\"";
      "\"ph\":\"f\"";
    ];
  let tid = (Obs.span_ctx root).Obs.trace_id in
  let only = Obs.merge_trace_json ~trace:tid lanes in
  Alcotest.(check bool) "filter keeps the trace" true
    (contains only "\"client.query\"");
  Alcotest.(check bool) "filter drops other traces" false
    (contains only "\"noise\"")

let suite =
  [
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "histogram quantiles vs naive sort" `Quick
      test_histogram_quantiles;
    Alcotest.test_case "span ring overflow" `Quick test_span_ring_overflow;
    Alcotest.test_case "span parentage" `Quick test_span_parentage;
    Alcotest.test_case "trace export well-formed" `Quick
      test_trace_well_formed;
    Alcotest.test_case "log ring bounded" `Quick test_logs_bounded;
    Alcotest.test_case "registry deterministic across runs" `Quick
      test_registry_determinism;
    Alcotest.test_case "wire ctx round trip and remote parents" `Quick
      test_ctx_wire;
    Alcotest.test_case "eviction counter and orphan clamping" `Quick
      test_spans_dropped;
    Alcotest.test_case "merged lanes, flow arrows, trace filter" `Quick
      test_merge_lanes;
  ]
