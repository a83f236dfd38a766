(* The simulated network: filesystems with crash semantics, hosts,
   links, fault injection. *)

let fresh_net () =
  let e = Sim.Engine.create () in
  (e, Netsim.Net.create e)

(* --- Vfs --- *)

let test_vfs_write_read () =
  let fs = Netsim.Vfs.create () in
  Netsim.Vfs.write fs ~path:"/a" "one";
  Alcotest.(check (option string)) "read back" (Some "one")
    (Netsim.Vfs.read fs ~path:"/a");
  Alcotest.(check (option string)) "missing" None
    (Netsim.Vfs.read fs ~path:"/b");
  Alcotest.(check int) "size" 3 (Netsim.Vfs.size fs ~path:"/a")

let test_vfs_crash_loses_unflushed () =
  let fs = Netsim.Vfs.create () in
  Netsim.Vfs.write fs ~path:"/stable" "kept";
  Netsim.Vfs.flush fs;
  Netsim.Vfs.write fs ~path:"/volatile" "lost";
  Netsim.Vfs.crash fs;
  Alcotest.(check (option string)) "flushed survives" (Some "kept")
    (Netsim.Vfs.read fs ~path:"/stable");
  Alcotest.(check (option string)) "unflushed gone" None
    (Netsim.Vfs.read fs ~path:"/volatile")

let test_vfs_remove_semantics () =
  let fs = Netsim.Vfs.create () in
  Netsim.Vfs.write fs ~path:"/a" "x";
  Netsim.Vfs.flush fs;
  Netsim.Vfs.remove fs ~path:"/a";
  Alcotest.(check bool) "removed visible" false (Netsim.Vfs.exists fs ~path:"/a");
  Netsim.Vfs.crash fs;
  Alcotest.(check bool) "unflushed removal undone by crash" true
    (Netsim.Vfs.exists fs ~path:"/a");
  Netsim.Vfs.remove fs ~path:"/a";
  Netsim.Vfs.flush fs;
  Netsim.Vfs.crash fs;
  Alcotest.(check bool) "flushed removal sticks" false
    (Netsim.Vfs.exists fs ~path:"/a")

let test_vfs_rename_atomic_and_durable () =
  let fs = Netsim.Vfs.create () in
  Netsim.Vfs.write fs ~path:"/f.new" "v2";
  Netsim.Vfs.write fs ~path:"/f" "v1";
  Netsim.Vfs.flush fs;
  Alcotest.(check bool) "rename ok" true
    (Netsim.Vfs.rename fs ~src:"/f.new" ~dst:"/f");
  Alcotest.(check (option string)) "new contents" (Some "v2")
    (Netsim.Vfs.read fs ~path:"/f");
  Alcotest.(check bool) "src gone" false (Netsim.Vfs.exists fs ~path:"/f.new");
  Netsim.Vfs.crash fs;
  Alcotest.(check (option string)) "rename survives crash" (Some "v2")
    (Netsim.Vfs.read fs ~path:"/f")

let test_vfs_rename_missing_src () =
  let fs = Netsim.Vfs.create () in
  Alcotest.(check bool) "missing src" false
    (Netsim.Vfs.rename fs ~src:"/ghost" ~dst:"/f")

let test_vfs_list () =
  let fs = Netsim.Vfs.create () in
  Netsim.Vfs.write fs ~path:"/b" "1";
  Netsim.Vfs.write fs ~path:"/a" "2";
  Netsim.Vfs.flush fs;
  Netsim.Vfs.write fs ~path:"/c" "3";
  Alcotest.(check (list string)) "sorted union" [ "/a"; "/b"; "/c" ]
    (Netsim.Vfs.list fs)

(* --- Host --- *)

let test_host_services () =
  let h = Netsim.Host.create "H" in
  Netsim.Host.register h ~service:"echo" (fun ~src:_ p -> "echo:" ^ p);
  (match Netsim.Host.lookup h ~service:"echo" with
  | Some f -> Alcotest.(check string) "handler" "echo:x" (f ~src:"me" "x")
  | None -> Alcotest.fail "lookup");
  Netsim.Host.unregister h ~service:"echo";
  Alcotest.(check bool) "unregistered" true
    (Netsim.Host.lookup h ~service:"echo" = None)

let test_host_crash_boot () =
  let h = Netsim.Host.create "H" in
  let booted = ref 0 in
  Netsim.Host.on_boot h (fun _ -> incr booted);
  Netsim.Vfs.write (Netsim.Host.fs h) ~path:"/x" "unflushed";
  Netsim.Host.crash h;
  Alcotest.(check bool) "down" false (Netsim.Host.is_up h);
  Alcotest.(check bool) "unflushed lost" false
    (Netsim.Vfs.exists (Netsim.Host.fs h) ~path:"/x");
  Netsim.Host.boot h;
  Alcotest.(check bool) "up" true (Netsim.Host.is_up h);
  Alcotest.(check int) "boot hook ran" 1 !booted

(* A crash takes every daemon down; only those started with [serve]
   come back on boot. *)
let test_host_crash_drops_services () =
  let h = Netsim.Host.create "H" in
  Netsim.Host.register h ~service:"plain" (fun ~src:_ _ -> "plain");
  Netsim.Host.serve h ~service:"daemon" (fun ~src:_ _ -> "daemon");
  let answers service =
    Option.map (fun f -> f ~src:"me" "x") (Netsim.Host.lookup h ~service)
  in
  Alcotest.(check (option string)) "plain before" (Some "plain")
    (answers "plain");
  Netsim.Host.crash h;
  Alcotest.(check (option string)) "daemon down while crashed" None
    (answers "daemon");
  Netsim.Host.boot h;
  Alcotest.(check (option string)) "plain gone after boot" None
    (answers "plain");
  Alcotest.(check (option string)) "daemon back after boot" (Some "daemon")
    (answers "daemon")

let test_host_crash_points () =
  let h = Netsim.Host.create "H" in
  Netsim.Host.maybe_crash h ~point:"p"; (* unarmed: no-op *)
  Netsim.Host.arm_crash h ~point:"p";
  (try
     Netsim.Host.maybe_crash h ~point:"p";
     Alcotest.fail "should crash"
   with Netsim.Host.Crashed "p" -> ());
  Alcotest.(check bool) "down after crash" false (Netsim.Host.is_up h);
  Netsim.Host.boot h;
  (* one-shot: does not fire again *)
  Netsim.Host.maybe_crash h ~point:"p";
  Alcotest.(check bool) "still up" true (Netsim.Host.is_up h)

(* --- Net --- *)

let test_net_call_roundtrip () =
  let _, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  Netsim.Host.register h ~service:"double" (fun ~src p -> src ^ "/" ^ p ^ p);
  match Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"double" "ab" with
  | Ok r -> Alcotest.(check string) "reply" "CLI/abab" r
  | Error f -> Alcotest.fail (Netsim.Net.failure_to_string f)

let test_net_failures () =
  let _, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  let call dst service =
    Netsim.Net.call net ~src:"CLI" ~dst ~service "x"
  in
  Alcotest.(check bool) "no host" true (call "GHOST" "s" = Error Netsim.Net.No_host);
  Alcotest.(check bool) "no service" true
    (call "SRV" "nothing" = Error Netsim.Net.No_service);
  Netsim.Host.crash h;
  Alcotest.(check bool) "host down" true
    (call "SRV" "s" = Error Netsim.Net.Host_down)

let test_net_latency_charged () =
  let e, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  Netsim.Host.register h ~service:"s" (fun ~src:_ _ -> "ok");
  let before = Sim.Engine.now e in
  ignore (Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x");
  Alcotest.(check bool) "clock advanced" true (Sim.Engine.now e > before)

let test_net_timeout_cost () =
  let e, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  Netsim.Host.crash h;
  let before = Sim.Engine.now e in
  ignore (Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x");
  Alcotest.(check bool) "timeout charged (30s default)" true
    (Sim.Engine.now e - before >= 30_000)

let test_net_drop_rate () =
  let _, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  Netsim.Host.register h ~service:"s" (fun ~src:_ _ -> "ok");
  Netsim.Net.set_drop_rate net 1.0;
  (match Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x" with
  | Error Netsim.Net.Timeout -> ()
  | _ -> Alcotest.fail "expected timeout under 100% drop");
  Netsim.Net.set_drop_rate net 0.0;
  match Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "expected success with 0% drop"

let test_net_remote_crash () =
  let _, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  Netsim.Host.register h ~service:"s" (fun ~src:_ _ ->
      Netsim.Host.maybe_crash h ~point:"boom";
      "ok");
  Netsim.Host.arm_crash h ~point:"boom";
  (match Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x" with
  | Error (Netsim.Net.Remote_crash "boom") -> ()
  | _ -> Alcotest.fail "expected remote crash");
  Alcotest.(check bool) "host went down" false (Netsim.Host.is_up h)

let test_net_stats () =
  let _, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  Netsim.Host.register h ~service:"s" (fun ~src:_ _ -> "yo");
  ignore (Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "abc");
  ignore (Netsim.Net.call net ~src:"CLI" ~dst:"GHOST" ~service:"s" "x");
  let s = Netsim.Net.stats net in
  Alcotest.(check int) "calls" 2 s.Netsim.Net.calls;
  Alcotest.(check int) "failures" 1 s.Netsim.Net.failures;
  Alcotest.(check int) "bytes both ways" (3 + 2 + 1) s.Netsim.Net.bytes;
  Netsim.Net.reset_stats net;
  Alcotest.(check int) "reset" 0 (Netsim.Net.stats net).Netsim.Net.calls

let test_net_latency_proportional_to_size () =
  let e, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  Netsim.Host.register h ~service:"s" (fun ~src:_ _ -> "ok");
  let cost payload =
    let before = Sim.Engine.now e in
    ignore (Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" payload);
    Sim.Engine.now e - before
  in
  let small = cost (String.make 100 'x') in
  let large = cost (String.make 200_000 'x') in
  Alcotest.(check bool) "bigger transfers cost more" true (large > small);
  (* default model: 1 ms per KiB on top of the base RTT *)
  Alcotest.(check bool) "roughly per-KiB" true
    (large - small >= 190 && large - small <= 210)

let test_net_reply_loss_executes_handler () =
  let _, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  let executed = ref 0 in
  Netsim.Host.register h ~service:"s" (fun ~src:_ _ ->
      incr executed;
      "ok");
  Netsim.Net.set_reply_drop_rate net 1.0;
  (match Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x" with
  | Error Netsim.Net.Timeout -> ()
  | _ -> Alcotest.fail "expected timeout under 100% reply loss");
  (* the defining property of reply loss: the request WAS processed *)
  Alcotest.(check int) "handler ran despite caller timeout" 1 !executed;
  Alcotest.(check int) "counted as reply_dropped" 1
    (Netsim.Net.stats net).Netsim.Net.reply_dropped;
  Alcotest.(check int) "not counted as req_dropped" 0
    (Netsim.Net.stats net).Netsim.Net.req_dropped;
  Netsim.Net.set_reply_drop_rate net 0.0;
  match Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x" with
  | Ok _ -> Alcotest.(check int) "second call also ran" 2 !executed
  | Error _ -> Alcotest.fail "expected success with reply loss off"

let test_net_arm_reply_drop () =
  let _, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  let executed = ref 0 in
  Netsim.Host.register h ~service:"s" (fun ~src:_ _ ->
      incr executed;
      "ok");
  Netsim.Net.arm_reply_drop net ~dst:"SRV" ~skip:1 1;
  let call () = Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x" in
  Alcotest.(check bool) "skipped call succeeds" true (call () = Ok "ok");
  Alcotest.(check bool) "armed drop fires" true
    (call () = Error Netsim.Net.Timeout);
  Alcotest.(check bool) "then disarmed" true (call () = Ok "ok");
  Alcotest.(check int) "every call executed server-side" 3 !executed

let test_net_link_faults () =
  let _, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  ignore (Netsim.Net.add_host net "OTHER");
  Netsim.Host.register h ~service:"s" (fun ~src:_ _ -> "ok");
  Netsim.Net.set_link_faults net ~a:"CLI" ~b:"SRV" ~drop:1.0 ();
  (match Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x" with
  | Error Netsim.Net.Timeout -> ()
  | _ -> Alcotest.fail "faulty link should drop");
  (* the same destination over a clean link is unaffected *)
  (match Netsim.Net.call net ~src:"OTHER" ~dst:"SRV" ~service:"s" "x" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "clean link should work");
  Netsim.Net.clear_link_faults net;
  match Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "cleared link should work"

let test_net_link_latency () =
  let e, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  Netsim.Host.register h ~service:"s" (fun ~src:_ _ -> "ok");
  let cost () =
    let before = Sim.Engine.now e in
    ignore (Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x");
    Sim.Engine.now e - before
  in
  let clean = cost () in
  Netsim.Net.set_link_faults net ~a:"CLI" ~b:"SRV" ~latency_ms:250 ();
  let slow = cost () in
  (* 250 ms extra each way *)
  Alcotest.(check int) "extra latency charged both directions" 500
    (slow - clean)

let test_net_partition () =
  let _, net = fresh_net () in
  List.iter
    (fun n ->
      let h = Netsim.Net.add_host net n in
      Netsim.Host.register h ~service:"s" (fun ~src:_ _ -> "ok"))
    [ "A"; "B"; "C"; "D" ];
  Netsim.Net.set_partition net [ [ "A"; "B" ] ];
  let call src dst = Netsim.Net.call net ~src ~dst ~service:"s" "x" in
  Alcotest.(check bool) "same group talks" true (call "A" "B" = Ok "ok");
  Alcotest.(check bool) "cut from unlisted" true
    (call "A" "C" = Error Netsim.Net.Timeout);
  Alcotest.(check bool) "unlisted cut from group" true
    (call "C" "A" = Error Netsim.Net.Timeout);
  Alcotest.(check bool) "unlisted hosts talk" true (call "C" "D" = Ok "ok");
  Alcotest.(check bool) "partitioned calls counted" true
    ((Netsim.Net.stats net).Netsim.Net.partitioned = 2);
  Netsim.Net.clear_partition net;
  Alcotest.(check bool) "healed" true (call "A" "C" = Ok "ok")

let test_net_partition_window () =
  let e, net = fresh_net () in
  List.iter
    (fun n ->
      let h = Netsim.Net.add_host net n in
      Netsim.Host.register h ~service:"s" (fun ~src:_ _ -> "ok"))
    [ "A"; "B" ];
  Netsim.Net.partition_window net ~hosts:[ "B" ] ~at:1000 ~duration_ms:1000;
  let call () = Netsim.Net.call net ~src:"A" ~dst:"B" ~service:"s" "x" in
  Alcotest.(check bool) "before window" true (call () = Ok "ok");
  Sim.Engine.run_until e 1500;
  Alcotest.(check bool) "inside window" true
    (call () = Error Netsim.Net.Timeout);
  Sim.Engine.run_until e 60_000;
  Alcotest.(check bool) "after window" true (call () = Ok "ok")

let test_net_schedule_outage () =
  let e, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  Netsim.Host.serve h ~service:"s" (fun ~src:_ _ -> "ok");
  Netsim.Net.schedule_outage net ~host:"SRV" ~at:1000 ~duration_ms:2000;
  let call () = Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x" in
  Alcotest.(check bool) "up before outage" true (call () = Ok "ok");
  Sim.Engine.run_until e 1500;
  Alcotest.(check bool) "down during outage" true
    (call () = Error Netsim.Net.Host_down);
  Alcotest.(check bool) "host marked down" false (Netsim.Host.is_up h);
  Sim.Engine.run_until e 120_000;
  Alcotest.(check bool) "rebooted after outage" true (call () = Ok "ok")

let test_net_stats_by_kind () =
  let _, net = fresh_net () in
  let h = Netsim.Net.add_host net "SRV" in
  ignore (Netsim.Net.add_host net "CLI");
  Netsim.Host.register h ~service:"s" (fun ~src:_ _ -> "ok");
  Netsim.Net.set_drop_rate net 1.0;
  ignore (Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x");
  Netsim.Net.set_drop_rate net 0.0;
  Netsim.Host.crash h;
  ignore (Netsim.Net.call net ~src:"CLI" ~dst:"SRV" ~service:"s" "x");
  Netsim.Host.boot h;
  let s = Netsim.Net.stats net in
  Alcotest.(check int) "req_dropped" 1 s.Netsim.Net.req_dropped;
  Alcotest.(check int) "down" 1 s.Netsim.Net.down;
  Alcotest.(check int) "failures total" 2 s.Netsim.Net.failures;
  Alcotest.(check bool) "wasted bytes counted" true
    (s.Netsim.Net.wasted_bytes >= 2)

let test_engine_pending () =
  let e = Sim.Engine.create () in
  let id = Sim.Engine.after e ~delay:10 "a" (fun () -> ()) in
  ignore (Sim.Engine.after e ~delay:20 "b" (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Sim.Engine.pending e);
  Sim.Engine.cancel e id;
  Alcotest.(check int) "cancel drops one" 1 (Sim.Engine.pending e);
  Sim.Engine.run_until e 100;
  Alcotest.(check int) "drained" 0 (Sim.Engine.pending e)

let test_net_duplicate_host () =
  let _, net = fresh_net () in
  ignore (Netsim.Net.add_host net "A");
  Alcotest.check_raises "dup"
    (Invalid_argument "Net.add_host: duplicate host \"A\"") (fun () ->
      ignore (Netsim.Net.add_host net "A"))

let suite =
  [
    Alcotest.test_case "vfs write/read" `Quick test_vfs_write_read;
    Alcotest.test_case "vfs crash loses unflushed" `Quick
      test_vfs_crash_loses_unflushed;
    Alcotest.test_case "vfs remove semantics" `Quick test_vfs_remove_semantics;
    Alcotest.test_case "vfs rename atomic+durable" `Quick
      test_vfs_rename_atomic_and_durable;
    Alcotest.test_case "vfs rename missing src" `Quick
      test_vfs_rename_missing_src;
    Alcotest.test_case "vfs list" `Quick test_vfs_list;
    Alcotest.test_case "host services" `Quick test_host_services;
    Alcotest.test_case "host crash/boot" `Quick test_host_crash_boot;
    Alcotest.test_case "host crash drops services" `Quick
      test_host_crash_drops_services;
    Alcotest.test_case "host crash points" `Quick test_host_crash_points;
    Alcotest.test_case "net call roundtrip" `Quick test_net_call_roundtrip;
    Alcotest.test_case "net failures" `Quick test_net_failures;
    Alcotest.test_case "net latency charged" `Quick test_net_latency_charged;
    Alcotest.test_case "net timeout cost" `Quick test_net_timeout_cost;
    Alcotest.test_case "net drop rate" `Quick test_net_drop_rate;
    Alcotest.test_case "net remote crash" `Quick test_net_remote_crash;
    Alcotest.test_case "net stats" `Quick test_net_stats;
    Alcotest.test_case "net duplicate host" `Quick test_net_duplicate_host;
    Alcotest.test_case "latency proportional" `Quick
      test_net_latency_proportional_to_size;
    Alcotest.test_case "net reply loss executes handler" `Quick
      test_net_reply_loss_executes_handler;
    Alcotest.test_case "net armed reply drop" `Quick test_net_arm_reply_drop;
    Alcotest.test_case "net link faults" `Quick test_net_link_faults;
    Alcotest.test_case "net link latency" `Quick test_net_link_latency;
    Alcotest.test_case "net partition" `Quick test_net_partition;
    Alcotest.test_case "net partition window" `Quick
      test_net_partition_window;
    Alcotest.test_case "net scheduled outage" `Quick
      test_net_schedule_outage;
    Alcotest.test_case "net stats by kind" `Quick test_net_stats_by_kind;
    Alcotest.test_case "engine pending" `Quick test_engine_pending;
  ]
