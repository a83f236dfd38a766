(* Boot a whole simulated Athena and run it for a configurable stretch of
   simulated time, then report what Moira did: generations, propagations,
   file inventory, network traffic.

     dune exec bin/athena_sim.exe -- --users 10000 --hours 25           *)

open Cmdliner
open Workload

let gen_to_string = function
  | Dcm.Manager.Generated bytes -> Printf.sprintf "generated %d B" bytes
  | Dcm.Manager.No_change -> "no change"
  | Dcm.Manager.Not_due -> "-"
  | Dcm.Manager.Gen_failed m -> "FAILED: " ^ m
  | Dcm.Manager.Locked -> "locked"

let run users hours verbose chaos =
  let spec =
    if users >= 10_000 then Population.default
    else Population.scaled Population.default
        (float_of_int users /. 10_000.)
  in
  let spec = { spec with Population.users } in
  Printf.printf
    "booting simulated Athena: %d users, %d NFS servers, %d workstations\n%!"
    spec.Population.users spec.Population.nfs_servers
    spec.Population.workstations;
  let t0 = Unix.gettimeofday () in
  let tb = Testbed.create ~spec () in
  Printf.printf "built in %.2f s real time\n%!" (Unix.gettimeofday () -. t0);
  if chaos then begin
    Printf.printf "chaos mode: random crash/reboot pairs scheduled (seed 4242)\n";
    Chaos.inject tb (Chaos.random_crashes ~seed:4242)
  end;
  let t0 = Unix.gettimeofday () in
  Testbed.run_hours tb hours;
  Printf.printf "simulated %d hours in %.2f s real time\n\n" hours
    (Unix.gettimeofday () -. t0);
  let reports = Dcm.Manager.reports tb.Testbed.dcm in
  let propagations =
    List.fold_left (fun a r -> a + Dcm.Manager.propagations r) 0 reports
  in
  let files =
    List.fold_left (fun a r -> a + Dcm.Manager.files_sent r) 0 reports
  in
  Printf.printf "DCM invocations: %d   host updates: %d   files delivered: %d\n"
    (List.length reports) propagations files;
  if verbose then begin
    Printf.printf "\nper-invocation log (generations only):\n";
    List.iter
      (fun r ->
        List.iter
          (fun s ->
            match s.Dcm.Manager.gen with
            | Dcm.Manager.Not_due -> ()
            | g ->
                Printf.printf "  t=%ds %-8s %s\n" r.Dcm.Manager.at
                  s.Dcm.Manager.service (gen_to_string g))
          r.Dcm.Manager.services)
      reports
  end;
  Printf.printf "\ncurrent data files:\n";
  List.iter
    (fun service ->
      match Dcm.Manager.last_output tb.Testbed.dcm ~service with
      | Some out ->
          List.iter
            (fun (name, c) ->
              Printf.printf "  %-8s %-22s %9d bytes\n" service name
                (Dcm.Sink.length c))
            out.Dcm.Gen.common;
          (match out.Dcm.Gen.per_host with
          | [] -> ()
          | (machine, files) :: _ ->
              List.iter
                (fun (name, c) ->
                  Printf.printf "  %-8s %-22s %9d bytes (x%d hosts, e.g. %s)\n"
                    service name (Dcm.Sink.length c)
                    (List.length out.Dcm.Gen.per_host)
                    machine)
                files)
      | None -> ())
    [ "HESIOD"; "NFS"; "MAIL"; "ZEPHYR" ];
  let stats = Netsim.Net.stats tb.Testbed.net in
  Printf.printf
    "\nnetwork: %d calls, %d bytes moved, %d failures\n"
    stats.Netsim.Net.calls stats.Netsim.Net.bytes stats.Netsim.Net.failures;
  Moira.Mdb.sync_tblstats tb.Testbed.mdb;
  Printf.printf "database dump would be %d bytes of ASCII\n"
    (Relation.Backup.dump_size (Moira.Mdb.db tb.Testbed.mdb));
  0

let () =
  let users =
    Arg.(value & opt int 1000 & info [ "users" ] ~docv:"N"
           ~doc:"Active user population.")
  in
  let hours =
    Arg.(value & opt int 25 & info [ "hours" ] ~docv:"H"
           ~doc:"Simulated hours to run.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ]
           ~doc:"Log every DCM generation event.")
  in
  let chaos =
    Arg.(value & flag & info [ "chaos" ]
           ~doc:
             "Crash and reboot server machines at random during the run: \
              each, with probability 0.6, goes down 1 minute to 47 hours \
              in for 10 to 180 minutes (the chaos harness's seed-4242 \
              draw).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "athena_sim"
         ~doc:"Run a whole simulated Athena under Moira management.")
      Term.(const run $ users $ hours $ verbose $ chaos)
  in
  exit (Cmd.eval' cmd)
