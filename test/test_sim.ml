(* The deterministic RNG and the discrete-event engine. *)

let test_rng_determinism () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Sim.Rng.create 1 in
  for _ = 1 to 500 do
    let v = Sim.Rng.int r 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 100 do
    let v = Sim.Rng.in_range r 5 7 in
    Alcotest.(check bool) "in_range inclusive" true (v >= 5 && v <= 7)
  done

let test_rng_split_independent () =
  let root = Sim.Rng.create 7 in
  let a = Sim.Rng.split root in
  let b = Sim.Rng.split root in
  let sa = List.init 10 (fun _ -> Sim.Rng.int a 1_000_000) in
  let sb = List.init 10 (fun _ -> Sim.Rng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" true (sa <> sb)

let test_rng_errors () =
  let r = Sim.Rng.create 1 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Sim.Rng.int r 0));
  Alcotest.check_raises "empty pick"
    (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Sim.Rng.pick r [||]))

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~at:30 "c" (fun () -> log := "c" :: !log));
  ignore (Sim.Engine.schedule e ~at:10 "a" (fun () -> log := "a" :: !log));
  ignore (Sim.Engine.schedule e ~at:20 "b" (fun () -> log := "b" :: !log));
  Sim.Engine.run_until e 100;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock at limit" 100 (Sim.Engine.now e)

let test_engine_fifo_at_same_time () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~at:10 "1" (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule e ~at:10 "2" (fun () -> log := 2 :: !log));
  Sim.Engine.run_until e 10;
  Alcotest.(check (list int)) "fifo" [ 1; 2 ] (List.rev !log)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let id = Sim.Engine.after e ~delay:5 "x" (fun () -> fired := true) in
  Sim.Engine.cancel e id;
  Sim.Engine.run_until e 100;
  Alcotest.(check bool) "cancelled" false !fired

let test_engine_every () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let id = Sim.Engine.every e ~interval:10 "tick" (fun () -> incr count) in
  Sim.Engine.run_until e 55;
  Alcotest.(check int) "5 ticks in 55" 5 !count;
  Sim.Engine.cancel e id;
  Sim.Engine.run_until e 200;
  Alcotest.(check int) "no ticks after cancel" 5 !count

let test_engine_advance () =
  let e = Sim.Engine.create () in
  Sim.Engine.advance e 2500;
  Alcotest.(check int) "advanced" 2500 (Sim.Engine.now e);
  Alcotest.(check int) "seconds" 2 (Sim.Engine.now_sec e)

let test_engine_nested_schedule () =
  (* an event scheduling another event inside the same run_until window *)
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule e ~at:10 "outer" (fun () ->
         log := "outer" :: !log;
         ignore
           (Sim.Engine.after e ~delay:5 "inner" (fun () ->
                log := "inner" :: !log))));
  Sim.Engine.run_until e 100;
  Alcotest.(check (list string)) "nested runs" [ "outer"; "inner" ]
    (List.rev !log)

let test_engine_past_event_clamped () =
  let e = Sim.Engine.create ~start:50 () in
  let at = ref 0 in
  ignore (Sim.Engine.schedule e ~at:10 "past" (fun () -> at := Sim.Engine.now e));
  Sim.Engine.run_until e 60;
  Alcotest.(check int) "clamped to now" 50 !at

let prop_engine_monotonic_clock =
  QCheck.Test.make ~name:"engine: clock never goes backward" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 0 1000))
    (fun delays ->
      let e = Sim.Engine.create () in
      let ok = ref true in
      let last = ref 0 in
      List.iter
        (fun d ->
          ignore
            (Sim.Engine.schedule e ~at:d "e" (fun () ->
                 if Sim.Engine.now e < !last then ok := false;
                 last := Sim.Engine.now e)))
        delays;
      Sim.Engine.run_until e 2000;
      !ok)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng errors" `Quick test_rng_errors;
    Alcotest.test_case "engine ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine fifo" `Quick test_engine_fifo_at_same_time;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine every" `Quick test_engine_every;
    Alcotest.test_case "engine advance" `Quick test_engine_advance;
    Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
    Alcotest.test_case "past event clamped" `Quick
      test_engine_past_event_clamped;
    QCheck_alcotest.to_alcotest prop_engine_monotonic_clock;
  ]
