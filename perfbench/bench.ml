(* The repository benchmark: drives the simulated campus from one process
   and one thread, as a closed loop with one call outstanding, and times
   calls into each layer's public functions from here.  README.md beside
   this file explains the workloads, the metrics and the loop model;
   run.py is the entry point that builds this program and runs it.

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1 --out DIR

   Prints one JSON object on its last line: the end-to-end metrics, the
   per-layer metrics (traced runs), the deterministic counts run.py
   compares across two same-seed runs, and the output-check tallies. *)

open Workload
module Mr = Moira.Mr_client
module Hes = Hesiod.Hes_server
module Glue = Moira.Glue

(* ---------------- clock ---------------- *)

(* CLOCK_MONOTONIC in ns: [Unix.gettimeofday]'s 1 us steps quantise the
   ~10 us reads and logins. *)
let now () = Monotonic_clock.now ()

let ns_since t0 = Int64.to_int (Int64.sub (now ()) t0)

let ms ns = float_of_int ns /. 1e6

let us ns = float_of_int ns /. 1e3

(* ---------------- host speed ---------------- *)

(* The machines this runs on are shared.  Other tenants slow this one to
   as little as half its speed, for stretches of seconds to minutes:
   often for a whole run, which no estimator inside the run can see
   past.  So every timed
   stretch of work is bracketed by a fixed calibration loop, and its
   times are scaled by the loop's reference time over the loop's time
   around it.  Every time reported is the time the work would take on
   the reference host, unloaded (README.md, "Host speed"). *)

let calib_iters = 1_000_000

(* the calibration loop's time on the reference host (a 2-vCPU Intel
   Xeon VM) at its fastest *)
let calib_ref_ns = 1_450_000.

(* Integer arithmetic only: no allocation and no memory traffic, so the
   program's heap, GC and data layout cannot change its time. *)
let calibrate () =
  let t0 = now () in
  let x = ref 0 in
  for i = 1 to calib_iters do
    x := !x + (i * i mod 7)
  done;
  ignore (Sys.opaque_identity !x);
  ns_since t0

(* stretch id -> reference over measured calibration time *)
let scales : (int, float) Hashtbl.t = Hashtbl.create 4096

(* the stretch running now: samples taken in it are scaled by its factor *)
let cur_stretch = ref 0

(* Run [f] as a new stretch, calibrated before and after; returns its
   result and its factor.  Stretches do not nest. *)
let stretch f =
  incr cur_stretch;
  let id = !cur_stretch in
  let c0 = calibrate () in
  let r = f () in
  let c1 = calibrate () in
  let s = calib_ref_ns *. 2. /. float_of_int (c0 + c1) in
  Hashtbl.replace scales id s;
  (r, s)

let scale_of id = match Hashtbl.find_opt scales id with Some s -> s | None -> 1.

(* [f]'s time in its own stretch, scaled, in ns *)
let scaled_ns f =
  let ns, s =
    stretch (fun () ->
        let t0 = now () in
        f ();
        ns_since t0)
  in
  float_of_int ns *. s

(* ---------------- samples ---------------- *)

(* A workload interleaves its phases: after a round 0 of fixed op counts,
   each of [rounds] rounds gives every phase one chunk, so each phase's
   samples are spread evenly over the whole run, and a stretch in which
   other tenants of a shared host slow it weighs on every phase alike. *)
let rounds = 24

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let per n d = if d = 0. then 0. else n /. d

(* the round running now: samples from round 0 are not timed *)
let cur_round = ref 0

(* Times in ns, each with the round and the stretch it was taken in; read
   back scaled by its stretch's factor. *)
module Samples = struct
  type t = {
    mutable v : int array;
    mutable r : int array;
    mutable s : int array;
    mutable n : int;
  }

  let create () =
    { v = Array.make 4096 0; r = Array.make 4096 0; s = Array.make 4096 0; n = 0 }

  let add t x =
    if t.n = Array.length t.v then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      t.v <- grow t.v;
      t.r <- grow t.r;
      t.s <- grow t.s
    end;
    t.v.(t.n) <- x;
    t.r.(t.n) <- !cur_round;
    t.s.(t.n) <- !cur_stretch;
    t.n <- t.n + 1

  let count t = t.n

  (* the [i]th sample, scaled *)
  let get t i = float_of_int t.v.(i) *. scale_of t.s.(i)

  let sorted t =
    let a = Array.init t.n (get t) in
    Array.sort compare a;
    a

  (* nearest-rank quantile of a sorted array *)
  let rank a q =
    let n = Array.length a in
    if n = 0 then 0.
    else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

  (* the samples of rounds 1 and later, sorted *)
  let timed t =
    let l = ref [] in
    for i = t.n - 1 downto 0 do
      if t.r.(i) >= 1 then l := get t i :: !l
    done;
    let a = Array.of_list !l in
    Array.sort compare a;
    a

  let quantile t q = rank (timed t) q

  (* samples per second of their summed time *)
  let rate t =
    let a = timed t in
    let tot = Array.fold_left ( +. ) 0. a in
    if tot = 0. then 0. else float_of_int (Array.length a) *. 1e9 /. tot

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. get t i
    done;
    !s
end

(* the run's median factor, for the per-layer times that are accumulated
   across stretches *)
let run_scale () =
  median (Hashtbl.fold (fun _ s acc -> s :: acc) scales [])

(* ---------------- tracing ---------------- *)

(* Benchmark-owned spans around calls into each layer: name, start, end,
   parent and op id, kept in memory.  Self time (span minus the part its
   children cover) is accumulated per name as spans close; the first
   [keep] spans are also written once, at the end, as a Chrome trace. *)
module Trace = struct
  let on = ref false

  type frame = {
    name : string;
    key : string;  (** enclosing span's name ^ "/" ^ [name] *)
    id : int;
    parent : int;
    op : int;
    t0 : int64;
    mutable child_ns : int;
  }

  let stack : frame list ref = ref []

  let next_id = ref 0

  let op_id = ref 0

  let keep = 50_000

  let kept : (string * int * int * int * int64 * int) list ref = ref []

  let nkept = ref 0

  (* key -> (total self ns, spans) *)
  let self : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 32

  let new_op () = incr op_id

  let span name f =
    if not !on then f ()
    else begin
      incr next_id;
      let parent, key =
        match !stack with
        | p :: _ -> (p.id, p.name ^ "/" ^ name)
        | [] -> (0, name)
      in
      let fr =
        { name; key; id = !next_id; parent; op = !op_id; t0 = now (); child_ns = 0 }
      in
      stack := fr :: !stack;
      let finish () =
        let dur = ns_since fr.t0 in
        stack := List.tl !stack;
        (match !stack with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ());
        let tot, cnt =
          match Hashtbl.find_opt self fr.key with
          | Some c -> c
          | None ->
              let c = (ref 0, ref 0) in
              Hashtbl.replace self fr.key c;
              c
        in
        tot := !tot + (dur - fr.child_ns);
        incr cnt;
        if !nkept < keep then begin
          incr nkept;
          kept := (name, fr.id, fr.parent, fr.op, fr.t0, dur) :: !kept
        end
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  (* mean self time per span of [key], in ns *)
  let self_ns key =
    match Hashtbl.find_opt self key with
    | Some (tot, cnt) when !cnt > 0 -> float_of_int !tot /. float_of_int !cnt
    | _ -> 0.

  let write_chrome path =
    let spans = List.rev !kept in
    let base = match spans with (_, _, _, _, t0, _) :: _ -> t0 | [] -> 0L in
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[";
    List.iteri
      (fun i (name, id, parent, op, t0, dur) ->
        Printf.fprintf oc
          "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
          (if i = 0 then "" else ",")
          name
          (Int64.to_float (Int64.sub t0 base) /. 1e3)
          (float_of_int dur /. 1e3) id parent op)
      spans;
    output_string oc "\n]}\n";
    close_out oc
end

(* Wrap a host's service handler so the server side of every call gets
   its own span (the handler runs inline inside [Netsim.Net.call]). *)
let wrap_service host ~service ~span ?record () =
  match Netsim.Host.lookup host ~service with
  | None -> ()
  | Some h ->
      Netsim.Host.register host ~service (fun ~src payload ->
          Trace.span span (fun () ->
              let reply = h ~src payload in
              (match record with Some r -> r payload reply | None -> ());
              reply))

(* ---------------- counters ---------------- *)

let counter_names =
  [
    "net.service.moira.calls"; "net.service.moira.bytes";
    "net.service.hesiod.calls"; "plan.cache.hits"; "plan.cache.misses";
    "plan.path.scan"; "plan.path.probe"; "table.sorted.rebuild";
    "client.read.stale_bounce"; "client.read.replica"; "client.read.primary";
    "client.replica_quarantined"; "repl.primary.fetches";
    "repl.primary.snapshots_served"; "dcm.keyed.splice"; "dcm.keyed.fallback";
    "dcm.keyed.full"; "update.ops.sent"; "update.ops.retried";
    "update.client.full_packs"; "engine.events_fired";
  ]

type world = {
  tb : Testbed.t;
  dcm : Dcm.Manager.t;
  hes_machine : string;
  hes : Hes.t;
  ws : string;  (** the workstation every client and login runs on *)
  admin : Mr.t;
  second : Mr.t;
      (** an ordinary user's handle (reads), or a replica reader (writes) *)
  user_login : string;
}

(* the benchmark's own op counts, snapshotted beside the counters *)
let n_reads = ref 0

let n_writes = ref 0

let n_logins = ref 0

let sim_read_ms = ref 0

let snapshot w =
  List.map
    (fun n -> (n, Option.value (Obs.find_counter Obs.default n) ~default:0))
    counter_names
  @ [
      ("journal.entries", Relation.Journal.length (Moira.Mdb.journal w.tb.Testbed.mdb));
      ("intern.distinct", Relation.Intern.stats.Relation.Intern.distinct);
      ("intern.bytes", Relation.Intern.stats.Relation.Intern.bytes);
      ("bench.reads", !n_reads);
      ("bench.writes", !n_writes);
      ("bench.logins", !n_logins);
      ("bench.sim_read_ms", !sim_read_ms);
    ]

let diff a b = List.map2 (fun (n, x) (_, y) -> (n, x - y)) a b

(* round 0's op counts: their counter deltas are the deterministic counts *)
let count_reads = 4096

let count_writes = 1024

let count_logins = 2048

let count_cycles = 4

(* ---------------- generated streams ---------------- *)

(* No source the repository holds gives a campus's request mix, so every
   choice in a stream is uniform: which login, which list, which query,
   which handle. *)
let pick rng a = a.(Random.State.int rng (Array.length a))

type read = { h : Mr.t; qname : string; args : string list }

type check = { cq : string; cargs : string list; ok : string list list -> bool }

type write = { wq : string; wargs : string list; ryw : check }

type op = Read of read | Login of string

type gen = {
  rng : Random.State.t;
  w : world;
  logins : string array;
  shells : (string, string) Hashtbl.t;  (** simulated current shell *)
  boxes : (string, string) Hashtbl.t;  (** simulated current POP machine *)
  members : (string * string, bool) Hashtbl.t;
      (** simulated membership of the (list, login) pairs the stream touched *)
}

let shell_choices =
  [| "/bin/csh"; "/bin/sh"; "/bin/tcsh"; "/bin/ksh"; "/bin/bash"; "/bin/zsh" |]

let pick_login g = pick g.rng g.logins

let glue_query w name args =
  match Glue.query w.tb.Testbed.glue ~name args with
  | Ok r -> r
  | Error code ->
      failwith
        (Printf.sprintf "bench: %s %s: %s" name (String.concat " " args)
           (Comerr.Com_err.error_message code))

let current_shell g login =
  match Hashtbl.find_opt g.shells login with
  | Some s -> s
  | None -> (
      match glue_query g.w "get_user_by_login" [ login ] with
      | (_ :: _ :: shell :: _) :: _ -> shell
      | _ -> "")

let current_box g login =
  match Hashtbl.find_opt g.boxes login with
  | Some b -> b
  | None -> (
      match glue_query g.w "get_pobox" [ login ] with
      | [ _; _; box; _; _; _ ] :: _ -> box
      | _ -> "")

let on_list g login list =
  match Hashtbl.find_opt g.members (list, login) with
  | Some b -> b
  | None ->
      List.exists
        (function l :: _ -> l = list | [] -> false)
        (match
           Glue.query g.w.tb.Testbed.glue ~name:"get_lists_of_member"
             [ "USER"; login ]
         with
        | Ok r -> r
        | Error _ -> [])

let shell_write g =
  let login = pick_login g in
  let cur = current_shell g login in
  let rec choose () =
    let s = shell_choices.(Random.State.int g.rng (Array.length shell_choices)) in
    if s = cur then choose () else s
  in
  let shell = choose () in
  Hashtbl.replace g.shells login shell;
  {
    wq = "update_user_shell";
    wargs = [ login; shell ];
    ryw =
      {
        cq = "get_user_by_login";
        cargs = [ login ];
        ok = (function [ (l :: _ :: s :: _) ] -> l = login && s = shell | _ -> false);
      };
  }

let pobox_write g =
  let login = pick_login g in
  let pops = g.w.tb.Testbed.built.Population.pop_machines in
  let cur = current_box g login in
  let box = if pops.(0) = cur then pops.(1 mod Array.length pops) else pops.(0) in
  Hashtbl.replace g.boxes login box;
  {
    wq = "set_pobox";
    wargs = [ login; "POP"; box ];
    ryw =
      {
        cq = "get_pobox";
        cargs = [ login ];
        ok = (function [ (l :: "POP" :: b :: _) ] -> l = login && b = box | _ -> false);
      };
  }

(* a (list, user) pair that is not a membership yet *)
let fresh_pair g lists =
  let rec go () =
    let list = lists.(Random.State.int g.rng (Array.length lists)) in
    let login = pick_login g in
    if on_list g login list then go () else (list, login)
  in
  go ()

let member_write g ~add (list, login) =
  Hashtbl.replace g.members (list, login) add;
  let has = List.exists (function l :: _ -> l = list | [] -> false) in
  {
    wq = (if add then "add_member_to_list" else "delete_member_from_list");
    wargs = [ list; "USER"; login ];
    ryw =
      {
        cq = "get_lists_of_member";
        cargs = [ "USER"; login ];
        ok = (fun rows -> has rows = add);
      };
  }

(* The write mix of the write phases: a shell, a pobox, then an
   add/delete pair over one fresh (list, user) pair. *)
let write_stream g ~lists n =
  let pair = ref ("", "") in
  Array.init n (fun i ->
      match i mod 4 with
      | 0 -> shell_write g
      | 1 -> pobox_write g
      | 2 ->
          pair := fresh_pair g lists;
          member_write g ~add:true !pair
      | _ -> member_write g ~add:false !pair)

(* One DCM step's edits.  Mixed (dcm_steady): one edit of each kind the
   write mix has: a shell, a pobox, adding a user to a list, and dropping
   the user the previous step added, so list closures are invalidated
   every step.  Otherwise one shell: the per-cycle floor. *)
let cycle_batches g ~lists ~mixed n =
  let prev = ref None in
  Array.init n (fun _ ->
      if not mixed then [ shell_write g ] else
      let s = shell_write g and pb = pobox_write g in
      let pair = fresh_pair g lists in
      let add = member_write g ~add:true pair in
      let del = Option.map (member_write g ~add:false) !prev in
      prev := Some pair;
      [ s; pb; add ] @ Option.to_list del)

let read_stream g n =
  let w = g.w in
  let built = w.tb.Testbed.built in
  let lists =
    Array.append built.Population.maillist_names built.Population.group_names
  in
  let expected = Hashtbl.create 4096 in
  let outcome h name args =
    let key = (h == w.admin, name, args) in
    match Hashtbl.find_opt expected key with
    | Some r -> r
    | None ->
        let r = Mr.mr_query_list h ~name args in
        Hashtbl.replace expected key r;
        r
  in
  (* the five retrievals and a Hesiod login, equally likely; a retrieval
     from either handle, equally likely, and the ordinary user's handle
     asks about that user *)
  let rec op () =
    let kind = Random.State.int g.rng 6 in
    if kind = 5 then Login (pick_login g)
    else
      let admin = Random.State.bool g.rng in
      let h = if admin then w.admin else w.second in
      let login = if admin then pick_login g else w.user_login in
      let name, args =
        match kind with
        | 0 -> ("get_user_by_login", [ login ])
        | 1 -> ("get_pobox", [ login ])
        | 2 -> ("get_filesys_by_label", [ pick_login g ])
        | 3 -> ("get_lists_of_member", [ "USER"; login ])
        | _ -> ("get_members_of_list", [ pick g.rng lists ])
      in
      (* only requests a warm-up pass answers successfully are kept: the
         workload injects no failures *)
      match outcome h name args with
      | Ok (_ :: _) -> Read { h; qname = name; args }
      | Ok [] | Error _ -> op ()
  in
  Array.init n (fun _ -> op ())

(* ---------------- set-up ---------------- *)

type config = {
  scale : float;
  replicas : int;
}

let config_of = function
  | "campus_reads" -> { scale = 1.0; replicas = 0 }
  | "campus_writes" -> { scale = 1.0; replicas = 2 }
  | "dcm_steady" -> { scale = 2.0; replicas = 0 }
  | w -> failwith ("bench: unknown workload " ^ w)

(* Every service on the paper's 15-minute cron minimum; NFS, MAIL and
   ZEPHYR at four times it, so three steps in four are HESIOD-only and
   the heavy cycles make a tail of their own (README.md). *)
let intervals = [ ("HESIOD", 15); ("NFS", 60); ("MAIL", 60); ("ZEPHYR", 60) ]

let step_min = 16

let heavy_step_min = List.fold_left (fun a (_, m) -> max a m) 0 intervals + 1

let cron_off_min = 1_000_000_000

(* part times of the current cycle and of the whole run, filled by the
   traced generators *)
let part_ns : (string, int ref) Hashtbl.t = Hashtbl.create 16

let part_total : (string, int ref) Hashtbl.t = Hashtbl.create 16

let bump tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some c -> c := !c + n
  | None -> Hashtbl.replace tbl key (ref n)

let part_metric service pname =
  "gen." ^ String.lowercase_ascii service
  ^ if pname = "" then "" else "." ^ pname

let timed_gen service pname f =
  let key = part_metric service pname in
  fun glue ->
    Trace.span key (fun () ->
        let t0 = now () in
        let r = f glue in
        bump part_ns key (ns_since t0);
        r)

let traced_generators () =
  List.map
    (fun (g : Dcm.Gen.t) ->
      let svc = g.Dcm.Gen.service in
      if g.Dcm.Gen.parts = [] then
        { g with Dcm.Gen.generate = timed_gen svc "" g.Dcm.Gen.generate }
      else
        {
          g with
          Dcm.Gen.parts =
            List.map
              (fun (p : Dcm.Gen.part) ->
                let name = p.Dcm.Gen.pname in
                {
                  p with
                  Dcm.Gen.pbuild = timed_gen svc name p.Dcm.Gen.pbuild;
                  pincr =
                    Option.map
                      (fun f glue st ->
                        timed_gen svc name (fun glue -> f glue st) glue)
                      p.Dcm.Gen.pincr;
                })
              g.Dcm.Gen.parts;
        })
    Dcm.Manager.standard_generators

let set_interval glue (svc, minutes) =
  match Glue.query glue ~name:"get_server_info" [ svc ] with
  | Ok [ r ] ->
      let f i = List.nth r i in
      ignore
        (Glue.query glue ~name:"update_server_info"
           [ svc; string_of_int minutes; f 2; f 3; f 6; f 7; f 11; f 12 ])
  | _ -> failwith ("bench: no service " ^ svc)

(* think time between the write steps of campus_writes *)
let think_ms = 1_000

(* the replicas' poll period: four polls per think step, so the replicas
   have applied every write by the time the reader's chunk runs *)
let poll_ms = 250

(* Testbed creation, the first full DCM cycle, replica boot sync, and
   connection plus authentication of both handles. *)
let setup cfg ~user_pick =
  let spec = Population.scaled Population.default cfg.scale in
  let tb =
    Testbed.create ~spec ~dcm_every_min:cron_off_min ~replicas:cfg.replicas
      ~repl_poll_ms:poll_ms ()
  in
  let built = tb.Testbed.built in
  List.iter (set_interval tb.Testbed.glue) intervals;
  let generators =
    if !Trace.on then traced_generators () else Dcm.Manager.standard_generators
  in
  let dcm =
    Dcm.Manager.create ~net:tb.Testbed.net
      ~moira_host:built.Population.moira_machine ~glue:tb.Testbed.glue
      ~zephyr_to:built.Population.zephyr_machines.(0)
      ~mail_via:(built.Population.mail_hub, "moira-admins")
      ~generators ~slo:Obs.Slo.default ()
  in
  ignore (Dcm.Manager.run dcm);
  if cfg.replicas > 0 then Testbed.run_minutes tb 1;
  let ws = built.Population.workstation_machines.(0) in
  let admin = Testbed.admin_client tb ~src:ws in
  let user_login = user_pick built.Population.logins in
  let second =
    if cfg.replicas > 0 then begin
      let r = Testbed.admin_client tb ~src:ws in
      Mr.set_replicas admin (Testbed.replica_machines tb);
      Mr.set_replicas r (Testbed.replica_machines tb);
      r
    end
    else Testbed.user_client tb ~src:ws ~login:user_login
  in
  let hes_machine, hes = Testbed.first_hesiod tb in
  { tb; dcm; hes_machine; hes; ws; admin; second; user_login }

(* VmHWM of this process, in MB *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  let r = go () in
  close_in ic;
  r

(* Set up [n - 1] times in forked children and once here, timing each
   (scaled): the children keep the repeats out of this process's peak
   RSS. *)
let timed_setups cfg ~user_pick n =
  let child () =
    let rd, wr = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        Unix.close rd;
        let ns = scaled_ns (fun () -> ignore (setup cfg ~user_pick)) in
        let s = Printf.sprintf "%.0f\n" ns in
        ignore (Unix.write_substring wr s 0 (String.length s));
        Unix._exit 0
    | pid ->
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let r = try float_of_string (String.trim (input_line ic)) with _ -> -1. in
        close_in ic;
        let _, status = Unix.waitpid [] pid in
        if r < 0. || status <> Unix.WEXITED 0 then failwith "bench: setup child failed";
        r
  in
  let others = List.init (n - 1) (fun _ -> child ()) in
  let w = ref None in
  let mine = scaled_ns (fun () -> w := Some (setup cfg ~user_pick)) in
  (Option.get !w, List.map (fun ns -> ns /. 1e9) (mine :: others))

(* ---------------- phases ---------------- *)

(* A phase is one op stream of a workload.  It runs in chunks, one per
   round. *)
type phase = {
  pname : string;
  mutable next : int;  (** index of the next op in the stream *)
  mutable ops : int;
  mutable failed : int;
  mutable prefix : (string * int) list;  (** counter deltas over round 0 *)
  mutable wall_ns : float;  (** scaled wall time of the timed rounds' chunks *)
  mutable writes : int;  (** writes made in them *)
  mutable gc_words : float;
  mutable gc_minor : int;
  mutable gc_major : int;
}

let new_phase pname =
  {
    pname; next = 0; ops = 0; failed = 0; prefix = []; wall_ns = 0.; writes = 0; gc_words = 0.;
    gc_minor = 0; gc_major = 0;
  }

(* Run [step i] for the phase's next [n] ops: all in one stretch, or with
   [per_op] each in its own (for ops long enough that the host's speed
   can change within a chunk of them). *)
let run_chunk ?(per_op = false) ph ~round n step =
  let g0 = Gc.quick_stat () in
  cur_round := round;
  let w0 = !n_writes in
  let one () =
    (match step ph.next with
    | true -> ()
    | false ->
        if ph.failed < 5 then
          prerr_endline (Printf.sprintf "bench: %s: op %d failed its check" ph.pname ph.next);
        ph.failed <- ph.failed + 1
    | exception e ->
        prerr_endline ("bench: " ^ ph.pname ^ ": " ^ Printexc.to_string e);
        ph.failed <- ph.failed + 1);
    ph.next <- ph.next + 1;
    ph.ops <- ph.ops + 1
  in
  let wall =
    if per_op then begin
      let t = ref 0. in
      for _ = 1 to n do
        t := !t +. scaled_ns one
      done;
      !t
    end
    else scaled_ns (fun () -> for _ = 1 to n do one () done)
  in
  if round >= 1 then begin
    ph.wall_ns <- ph.wall_ns +. wall;
    ph.writes <- ph.writes + !n_writes - w0
  end;
  let g1 = Gc.quick_stat () in
  ph.gc_words <- ph.gc_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
  ph.gc_minor <- ph.gc_minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
  ph.gc_major <- ph.gc_major + g1.Gc.major_collections - g0.Gc.major_collections

(* writes per wall second of the timed chunks that issue them, including
   the reads, checks and replica polls between the writes *)
let write_rate ph = per (float_of_int ph.writes *. 1e9) ph.wall_ns

(* ---------------- operations ---------------- *)

type probes = {
  query : Samples.t;
  login : Samples.t;
  write : Samples.t;
  mutable logins_run : string list;  (** first logins, for the lookup replay *)
  mutable reads_run : (string * string list) list;
      (** first retrievals, for the dispatch replay *)
}

let probes =
  {
    query = Samples.create (); login = Samples.create (); write = Samples.create ();
    logins_run = []; reads_run = [];
  }

let replay_cap = 20_000

(* Moira payloads are recorded only while a chunk that supplies the
   query metrics runs. *)
let recording = ref false

let engine w = w.tb.Testbed.engine

(* one Mr_client retrieval; [ok] checks the returned rows *)
let do_read w h name args ~ok =
  Trace.new_op ();
  let s0 = Sim.Engine.now (engine w) in
  let t0 = now () in
  let r = Trace.span "query" (fun () -> Mr.mr_query_list h ~name args) in
  Samples.add probes.query (ns_since t0);
  sim_read_ms := !sim_read_ms + (Sim.Engine.now (engine w) - s0);
  if !n_reads < replay_cap then probes.reads_run <- (name, args) :: probes.reads_run;
  incr n_reads;
  match r with Ok rows -> ok rows | Error _ -> false

let login_types = [ "passwd"; "pobox"; "filsys"; "grplist" ]

(* A Hesiod "login" from the workstation: the four records a login
   session resolves, over netsim. *)
let do_login w login =
  Trace.new_op ();
  let t0 = now () in
  let rs =
    Trace.span "login" (fun () ->
        List.map
          (fun ty ->
            Hes.resolve w.tb.Testbed.net ~src:w.ws ~server:w.hes_machine
              ~name:login ~ty)
          login_types)
  in
  Samples.add probes.login (ns_since t0);
  if !n_logins < replay_cap then probes.logins_run <- login :: probes.logins_run;
  incr n_logins;
  match rs with
  | Ok (p :: _) :: rest ->
      String.starts_with ~prefix:(login ^ ":") p
      && List.for_all Result.is_ok rest
  | _ -> false

let do_write h wr =
  Trace.new_op ();
  let t0 = now () in
  let r = Trace.span "write" (fun () -> Mr.mr_query_list h ~name:wr.wq wr.wargs) in
  Samples.add probes.write (ns_since t0);
  incr n_writes;
  match r with Ok _ -> true | Error _ -> false

(* ---------------- DCM cycles ---------------- *)

type cycles = {
  total : Samples.t;  (** Manager.run until the edited record answers *)
  heavy : Samples.t;  (** the same, for the cycles that regenerate NFS too *)
  parts : Samples.t;
  push : Samples.t;
  reload : Samples.t;
  mutable prefix_reports : Dcm.Manager.report list;
  adler : Samples.t;
  tarsum : Samples.t;
}

let new_cycles () =
  {
    total = Samples.create (); heavy = Samples.create (); parts = Samples.create (); push = Samples.create ();
    reload = Samples.create (); prefix_reports = []; adler = Samples.create ();
    tarsum = Samples.create ();
  }

let hesiod_docs w =
  match Dcm.Manager.last_output w.dcm ~service:"HESIOD" with
  | Some o -> o.Dcm.Gen.common
  | None -> []

(* Checksum cost over the HESIOD docs that changed this cycle, on fresh
   copies so no memoized checksum is reused. *)
let time_checksums cy before after =
  let changed =
    List.filter
      (fun (name, d) ->
        match List.assoc_opt name before with
        | Some d0 -> d0 != d
        | None -> true)
      after
    |> List.map (fun (n, d) -> (n, Dcm.Sink.of_string (Dcm.Sink.to_string d)))
  in
  let t0 = now () in
  List.iter
    (fun (_, d) ->
      let st = Dcm.Checksum.stream_start () in
      Dcm.Checksum.stream_feed_doc st d;
      ignore (Dcm.Checksum.stream_value st))
    changed;
  Samples.add cy.adler (ns_since t0);
  let fresh =
    List.map (fun (n, d) -> (n, Dcm.Sink.of_string (Dcm.Sink.to_string d))) changed
  in
  let t0 = now () in
  ignore (Dcm.Tarlike.checksum_docs fresh);
  Samples.add cy.tarsum (ns_since t0)

let generated (report : Dcm.Manager.report) service =
  List.exists
    (fun (s : Dcm.Manager.service_report) ->
      s.Dcm.Manager.service = service
      && match s.Dcm.Manager.gen with Dcm.Manager.Generated _ -> true | _ -> false)
    report.Dcm.Manager.services

(* One steady-state step: sim time past the HESIOD interval, the batch's
   edits through the admin handle, then [Manager.run] and the edited
   user's passwd record from the serving Hesiod host.  The edits come
   after the clock moves: a change stamped in the same second as the
   previous generation would not count as newer than it. *)
let do_cycle w cy ~index batch =
  Trace.new_op ();
  Testbed.run_minutes w.tb step_min;
  let edits_ok =
    List.for_all
      (fun wr ->
        incr n_writes;
        Result.is_ok (Mr.mr_query_list w.admin ~name:wr.wq wr.wargs))
      batch
  in
  (* the first edited user, and the shell the batch leaves them with *)
  let login, shell =
    List.fold_left
      (fun acc wr ->
        match (acc, wr) with
        | None, { wq = "update_user_shell"; wargs = [ l; s ]; _ } -> Some (l, s)
        | Some (l, _), { wq = "update_user_shell"; wargs = [ l'; s ]; _ } when l = l' ->
            Some (l, s)
        | _ -> acc)
      None batch
    |> Option.get
  in
  Hashtbl.iter (fun _ c -> c := 0) part_ns;
  let before = if !Trace.on then hesiod_docs w else [] in
  let t0 = now () in
  let report, answer =
    Trace.span "cycle" (fun () ->
        let report = Trace.span "manager.run" (fun () -> Dcm.Manager.run w.dcm) in
        let run_ns = ns_since t0 in
        let t1 = now () in
        ignore
          (Trace.span "hesiod.reload" (fun () ->
               Hes.resolve_local w.hes ~name:login ~ty:"passwd"));
        let reload_ns = ns_since t1 in
        let answer =
          Trace.span "hesiod.check" (fun () ->
              Hes.resolve w.tb.Testbed.net ~src:w.ws ~server:w.hes_machine
                ~name:login ~ty:"passwd")
        in
        let parts = Hashtbl.fold (fun _ c acc -> acc + !c) part_ns 0 in
        Hashtbl.iter (fun k c -> bump part_total k !c) part_ns;
        Samples.add cy.parts parts;
        Samples.add cy.push (run_ns - parts);
        Samples.add cy.reload reload_ns;
        (report, answer))
  in
  let total = ns_since t0 in
  Samples.add cy.total total;
  if generated report "NFS" then Samples.add cy.heavy total;
  if !Trace.on then time_checksums cy before (hesiod_docs w);
  if index < count_cycles then cy.prefix_reports <- report :: cy.prefix_reports;
  edits_ok && generated report "HESIOD"
  &&
  match answer with
  | Ok (p :: _) ->
      String.starts_with ~prefix:(login ^ ":") p && String.ends_with ~suffix:shell p
  | _ -> false

(* An untimed cycle with every service due.  Each DCM chunk starts with
   one: it absorbs whatever the other chunks changed, and restarts the
   cadence, so the chunk's four steps are three HESIOD-only cycles and
   one heavy one whatever other phases did to the data and the clock. *)
let catch_up w =
  Testbed.run_minutes w.tb heavy_step_min;
  ignore (Dcm.Manager.run w.dcm)

(* At the end, after a catch-up cycle: every service's last output
   equals a fresh full build. *)
let outputs_match_full w =
  catch_up w;
  List.for_all
    (fun (g : Dcm.Gen.t) ->
      match Dcm.Manager.last_output w.dcm ~service:g.Dcm.Gen.service with
      | None -> false
      | Some last ->
          let full = g.Dcm.Gen.generate w.tb.Testbed.glue in
          let same a b =
            List.length a = List.length b
            && List.for_all2
                 (fun (n, d) (n', d') -> (n = n' && Dcm.Sink.equal d d'))
                 a b
          in
          same last.Dcm.Gen.common full.Dcm.Gen.common
          && List.length last.Dcm.Gen.per_host = List.length full.Dcm.Gen.per_host
          && List.for_all2
               (fun (m, fs) (m', fs') -> m = m' && same fs fs')
               last.Dcm.Gen.per_host full.Dcm.Gen.per_host)
    Dcm.Manager.standard_generators

(* Every replica's dump equals the primary's once the stream drains. *)
let replicas_match w =
  Testbed.run_minutes w.tb 1;
  let primary = Relation.Backup.dump (Moira.Mdb.db w.tb.Testbed.mdb) in
  List.for_all
    (fun (_, r) ->
      Relation.Backup.dump (Moira.Mdb.db (Moira.Mr_server.replica_mdb r)) = primary)
    w.tb.Testbed.replicas

(* ---------------- replays for per-layer timings ---------------- *)

(* Median of [reps] scaled timings of [f] over the whole recorded set,
   per item. *)
let per_item_ns ~reps items f =
  let n = List.length items in
  if n = 0 then 0.
  else
    median
      (List.init reps (fun _ ->
           scaled_ns (fun () -> List.iter f items) /. float_of_int n))

(* ---------------- JSON ---------------- *)

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let json_obj kvs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) kvs)
  ^ "}"

let json_nums kvs = json_obj (List.map (fun (k, v) -> (k, json_num v)) kvs)

(* ---------------- workloads ---------------- *)

type run = {
  w : world;
  mutable think_ns : int;
  mutable applied : int;
}

(* A retrieval must return what the privileged in-process handle returns
   for the same request at the same moment, and a keyed retrieval the
   row of the login or label it asked for. *)
let read_ok w q rows =
  Glue.query w.tb.Testbed.glue ~name:q.qname q.args = Ok rows
  &&
  match (q.qname, q.args, rows) with
  | ("get_user_by_login" | "get_pobox" | "get_filesys_by_label"), [ key ], row :: _ ->
      List.hd row = key
  | _ -> rows <> []

let reads_step r stream i =
  match stream.(i mod Array.length stream) with
  | Read q -> do_read r.w q.h q.qname q.args ~ok:(read_ok r.w q)
  | Login l -> do_login r.w l

let logins_step r logins i = do_login r.w logins.(i mod Array.length logins)

let applied_total w =
  List.fold_left
    (fun a (_, rep) ->
      a + Relation.Replicate.applied_seq (Moira.Mr_server.replica_handle rep))
    0 w.tb.Testbed.replicas

(* sim think time: replicas poll, fetch and apply inside it *)
let think r =
  let before = applied_total r.w in
  let t0 = now () in
  Trace.span "think" (fun () -> Sim.Engine.run_for (engine r.w) think_ms);
  r.think_ns <- r.think_ns + ns_since t0;
  r.applied <- r.applied + applied_total r.w - before

(* a write and its read-your-writes read; the read is an output check,
   not a timed retrieval *)
let writes_step r stream i =
  let wr = stream.(i) in
  do_write r.w.admin wr
  &&
  let s0 = Sim.Engine.now (engine r.w) in
  let res = Mr.mr_query_list r.w.admin ~name:wr.ryw.cq wr.ryw.cargs in
  sim_read_ms := !sim_read_ms + (Sim.Engine.now (engine r.w) - s0);
  incr n_reads;
  match res with Ok rows -> wr.ryw.ok rows | Error _ -> false

(* campus_writes' main step: a write, its read-your-writes read, then
   think time *)
let writes_main_step r stream i =
  let ok = writes_step r stream i in
  think r;
  ok

(* campus_writes' reader: one user, through the replicas *)
let replica_read_step r readers i =
  let login = readers.(i) in
  do_read r.w r.w.second "get_user_by_login" [ login ]
    ~ok:(function (l :: _) :: _ -> l = login | _ -> false)

(* Every chunk runs a fixed number of ops, so every run of a seed does
   the same work and leaves the system in the same state.  (Time-boxed
   chunks would not: the write path slows as the journal grows, so a
   slower host would do fewer writes and then see faster ones.) *)
type size =
  | Ops of int  (** that many ops in each round after round 0 *)
  | Period of int
      (** a DCM chunk: a catch-up cycle, then one 4-step period; in every
          nth round *)

type chunk = {
  ph : phase;
  count0 : int;  (** ops in round 0 *)
  size : size;
  records : bool;  (** the chunk supplies the query metrics *)
  step : int -> bool;
}

let chunk ?(records = false) ph ~count0 ~size step = { ph; count0; size; records; step }

(* ops a chunk runs in each round: [per_s] ops per second of [seconds]
   on the reference host, and [quarters] quarters of the main phase's
   share, rounded down to whole write rotations of 4 *)
let per_round ~seconds ~per_s ~quarters =
  max 4 (seconds * per_s * quarters / 4 / rounds / 4 * 4)

(* Round 0 runs each chunk's fixed count and records its counter deltas;
   then every round runs each chunk that is due once, in order. *)
let run_rounds w chunks =
  let go c ~round n =
    (match c.size with Period _ -> catch_up w | Ops _ -> ());
    let before = snapshot w in
    recording := c.records;
    let per_op = match c.size with Period _ -> true | Ops _ -> false in
    run_chunk c.ph ~round n c.step ~per_op;
    recording := false;
    if round = 0 then c.ph.prefix <- diff (snapshot w) before
  in
  List.iter (fun c -> go c ~round:0 c.count0) chunks;
  for round = 1 to rounds do
    List.iter
      (fun c ->
        match c.size with
        | Ops n -> go c ~round n
        | Period k -> if round mod k = 0 then go c ~round 4)
      chunks
  done

(* ---------------- metrics ---------------- *)

let e2e_metrics ~setups ~wph cy =
  [
    ("setup_s", median setups);
    ("peak_rss_mb", peak_rss_mb ());
    ("query_p50_us", Samples.quantile probes.query 0.5 /. 1e3);
    ("query_p99_us", Samples.quantile probes.query 0.99 /. 1e3);
    ("query_per_s", Samples.rate probes.query);
    ("login_p50_us", Samples.quantile probes.login 0.5 /. 1e3);
    ("login_p99_us", Samples.quantile probes.login 0.99 /. 1e3);
    ("write_p50_us", Samples.quantile probes.write 0.5 /. 1e3);
    ("write_p99_us", Samples.quantile probes.write 0.99 /. 1e3);
    ("write_per_s", write_rate wph);
    (* the median cycle, and the median of the heavy cycles *)
    ("propagate_p50_ms", Samples.quantile cy.total 0.5 /. 1e6);
    ("propagate_tail_ms", Samples.quantile cy.heavy 0.5 /. 1e6);
  ]

(* The recorded Moira payloads, re-run through the codec. *)
let wire_metrics recorded =
  let decoded =
    List.filter_map
      (fun (req, reply) ->
        match (Gdb.Wire.decode_request req, Gdb.Wire.decode_reply reply) with
        | Ok a, Ok b -> Some (a, b)
        | _ -> None)
      recorded
  in
  let reps = 5 in
  let dec =
    per_item_ns ~reps recorded (fun (req, _) -> ignore (Gdb.Wire.decode_request req))
    +. per_item_ns ~reps recorded (fun (_, rep) -> ignore (Gdb.Wire.decode_reply rep))
  in
  let enc =
    per_item_ns ~reps decoded (fun (a, _) -> ignore (Gdb.Wire.encode_request a))
    +. per_item_ns ~reps decoded (fun (_, b) -> ignore (Gdb.Wire.encode_reply b))
  in
  let bytes =
    List.fold_left
      (fun a (req, rep) -> a + String.length req + String.length rep)
      0 recorded
  in
  [
    ("wire.encode_ns", enc);
    ("wire.decode_ns", dec);
    ("wire.bytes_per_query", per (float_of_int bytes) (float_of_int (List.length recorded)));
  ]

(* The recorded retrievals, re-run through the privileged direct handle:
   dispatch, plan and table without client, wire or network. *)
let glue_metrics w =
  let reads = probes.reads_run in
  let s = Samples.create () in
  ignore
    (stretch (fun () ->
         List.iter
           (fun (name, args) ->
             let t0 = now () in
             ignore (Glue.query w.tb.Testbed.glue ~name args);
             Samples.add s (ns_since t0))
           reads));
  let sorted = Samples.sorted s in
  [
    ("glue.dispatch_p50_us", Samples.rank sorted 0.5 /. 1e3);
    ("glue.dispatch_p99_us", Samples.rank sorted 0.99 /. 1e3);
    ( "glue.access_us",
      per_item_ns ~reps:5 reads (fun (name, args) ->
          ignore (Glue.access w.tb.Testbed.glue ~name args))
      /. 1e3 );
  ]

let hesiod_metrics w cy =
  let logins = probes.logins_run in
  [
    ( "hesiod.lookup_ns",
      per_item_ns ~reps:5 logins (fun l ->
          List.iter (fun ty -> ignore (Hes.resolve_local w.hes ~name:l ~ty)) login_types)
      /. float_of_int (List.length login_types) );
    ("hesiod.keys", float_of_int (Hes.loaded_keys w.hes));
    ("hesiod.reload_ms", Samples.rank (Samples.sorted cy.reload) 0.5 /. 1e6);
  ]

let mean_ms s = per (Samples.sum s /. 1e6) (float_of_int (Samples.count s))

let all_parts =
  List.concat_map
    (fun (g : Dcm.Gen.t) ->
      if g.Dcm.Gen.parts = [] then [ part_metric g.Dcm.Gen.service "" ]
      else
        List.map
          (fun (p : Dcm.Gen.part) -> part_metric g.Dcm.Gen.service p.Dcm.Gen.pname)
          g.Dcm.Gen.parts)
    Dcm.Manager.standard_generators

let dcm_metrics cph cy =
  let ncyc = float_of_int (Samples.count cy.total) in
  let reports = cy.prefix_reports in
  let nrep = float_of_int (List.length reports) in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 reports) in
  let svc f (r : Dcm.Manager.report) =
    List.fold_left (fun a s -> a + f s) 0 r.Dcm.Manager.services
  in
  let d n = float_of_int (List.assoc n cph.prefix) in
  let pc = float_of_int count_cycles in
  (* the median cycle, split into its parts *)
  let med =
    let a = Array.init (Samples.count cy.total) (fun i -> (Samples.get cy.total i, i)) in
    Array.sort compare a;
    if Array.length a = 0 then None else Some (snd a.((Array.length a - 1) / 2))
  in
  let at s = match med with Some i -> Samples.get s i /. 1e6 | None -> 0. in
  List.map
    (fun p ->
      ( p ^ "_ms",
        per
          (match Hashtbl.find_opt part_total p with
          | Some c -> ms !c *. run_scale ()
          | None -> 0.)
          ncyc ))
    all_parts
  @ [
      ("gen.parts_rebuilt", per (sum (svc (fun s -> List.length s.Dcm.Manager.rebuilt))) nrep);
      ("gen.parts_spliced", per (sum (svc (fun s -> s.Dcm.Manager.spliced))) nrep);
      ("keyed.splices", per (d "dcm.keyed.splice") pc);
      ("keyed.fallbacks", per (d "dcm.keyed.fallback") pc);
      ("keyed.full", per (d "dcm.keyed.full") pc);
      ("push.ms", mean_ms cy.push);
      ("push.bytes_per_cycle", per (sum Dcm.Manager.bytes_sent) nrep);
      ("push.files_per_cycle", per (sum Dcm.Manager.files_sent) nrep);
      ("update.ops_sent", per (d "update.ops.sent") pc);
      ("update.ops_retried", per (d "update.ops.retried") pc);
      ("update.full_packs", per (d "update.client.full_packs") pc);
      ("checksum.adler_ms", mean_ms cy.adler);
      ("tarlike.checksum_ms", mean_ms cy.tarsum);
      ("path.p50_cycle.parts_ms", at cy.parts);
      ("path.p50_cycle.push_ms", at cy.push);
      ("path.p50_cycle.reload_ms", at cy.reload);
      ( "path.p50_cycle.unattributed_ms",
        at cy.total -. at cy.parts -. at cy.push -. at cy.reload );
    ]

let query_layer_metrics qph =
  let d n = float_of_int (List.assoc n qph.prefix) in
  let rpcs = d "bench.reads" +. d "bench.writes" in
  let reads = d "bench.reads" in
  [
    ("net.calls_per_query", per (d "net.service.moira.calls") rpcs);
    ("net.bytes_per_query", per (d "net.service.moira.bytes") rpcs);
    ("net.sim_ms_per_query", per (d "bench.sim_read_ms") reads);
    ("plan.hits_per_query", per (d "plan.cache.hits") rpcs);
    ("plan.misses_per_query", per (d "plan.cache.misses") rpcs);
    ("plan.scans_per_query", per (d "plan.path.scan") rpcs);
    ("plan.probes_per_query", per (d "plan.path.probe") rpcs);
    ("table.sorted_rebuilds", d "table.sorted.rebuild");
  ]

let write_layer_metrics r wph =
  let d n = float_of_int (List.assoc n wph.prefix) in
  let writes = d "bench.writes" in
  (* the client figures are over the write phase's read-your-writes
     reads: on campus_writes, the reads that meet a replica behind them *)
  let reads = d "bench.reads" in
  let served = d "client.read.replica" and bounced = d "client.read.stale_bounce" in
  let lag =
    match Obs.find_histogram Obs.default "repl.lag_entries" with
    | Some s -> float_of_int s.Obs.p99
    | None -> 0.
  in
  [
    ("journal.entries_per_write", per (d "journal.entries") writes);
    ("repl.poll_us_per_entry", per (us r.think_ns *. run_scale ()) (float_of_int r.applied));
    ("repl.fetches", d "repl.primary.fetches");
    ("repl.snapshots", d "repl.primary.snapshots_served");
    ("repl.lag_entries_p99", lag);
    ("intern.distinct_added", d "intern.distinct");
    ("intern.bytes_added", d "intern.bytes");
    ("engine.events_per_op", per (d "engine.events_fired") writes);
    ("client.stale_bounces_per_read", per bounced reads);
    ("client.replica_read_share", per served (served +. bounced));
    ("client.quarantines", d "client.replica_quarantined");
  ]

let gc_metrics main =
  let ops = float_of_int (max 1 main.ops) in
  [
    ("gc.alloc_words_per_op", main.gc_words /. ops);
    ("gc.minor_per_kop", float_of_int main.gc_minor *. 1000. /. ops);
    ("gc.major_per_kop", float_of_int main.gc_major *. 1000. /. ops);
    ( "gc.peak_heap_mwords",
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words /. 1e6 );
  ]

let span_metrics () =
  List.map
    (fun (key, metric) -> (metric, Trace.self_ns key *. run_scale () /. 1e3))
    [
      ("query", "self.query_client_us");
      ("query/moira.server", "self.query_server_us");
      ("write", "self.write_client_us");
      ("write/moira.server", "self.write_server_us");
      ("login", "self.login_client_us");
      ("login/hesiod.server", "self.login_server_us");
      ("think", "self.think_us");
      ("think/repl.server", "self.think_repl_server_us");
      ("cycle/manager.run", "self.cycle_manager_us");
      ("manager.run/update.server", "self.cycle_update_server_us");
      ("cycle/hesiod.reload", "self.cycle_reload_us");
      ("cycle/hesiod.check", "self.cycle_check_client_us");
    ]

(* Deterministic counts: every phase's counter deltas over its first
   ops, and the first cycles' report totals. *)
let counts phases cy =
  List.concat_map
    (fun ph -> List.map (fun (n, v) -> (ph.pname ^ "." ^ n, v)) ph.prefix)
    phases
  @
  let reports = cy.prefix_reports in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  [
    ("cycles.push_bytes", sum Dcm.Manager.bytes_sent);
    ("cycles.push_files", sum Dcm.Manager.files_sent);
    ( "cycles.parts_rebuilt",
      sum (fun r ->
          List.fold_left
            (fun a s -> a + List.length s.Dcm.Manager.rebuilt)
            0 r.Dcm.Manager.services) );
    ( "cycles.parts_spliced",
      sum (fun r ->
          List.fold_left (fun a s -> a + s.Dcm.Manager.spliced) 0 r.Dcm.Manager.services) );
  ]

(* ---------------- main ---------------- *)

let install_tracing w recorded =
  let built = w.tb.Testbed.built in
  let n = ref 0 in
  let record req reply =
    if !recording && !n < replay_cap then begin
      incr n;
      recorded := (req, reply) :: !recorded
    end
  in
  List.iter
    (fun m ->
      wrap_service (Testbed.host w.tb m) ~service:Moira.Protocol.moira_service
        ~span:"moira.server" ~record ())
    (built.Population.moira_machine :: Testbed.replica_machines w.tb);
  wrap_service (Testbed.host w.tb built.Population.moira_machine)
    ~service:Relation.Replicate.service_name ~span:"repl.server" ();
  wrap_service (Testbed.host w.tb w.hes_machine) ~service:"hesiod"
    ~span:"hesiod.server" ();
  List.iter
    (fun m ->
      wrap_service (Testbed.host w.tb m) ~service:"moira_update"
        ~span:"update.server" ())
    (Testbed.managed_machines w.tb)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0
  and out = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "campus_reads|campus_writes|dcm_steady");
      ("--seed", Arg.Set_int seed, "stream seed");
      ("--seconds", Arg.Set_int seconds, "seconds the main phase's chunks add up to");
      ("--trace", Arg.Set_int trace, "1 = traced run (per-layer metrics)");
      ("--out", Arg.Set_string out, "directory for the Chrome trace");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --out DIR";
  let workload = !workload and seed = !seed and seconds = !seconds in
  let cfg = config_of workload in
  Trace.on := !trace = 1;
  (* the ordinary user behind the second handle, the same for every
     set-up of the run *)
  let user_pick logins = pick (Random.State.make [| seed; 1 |]) logins in
  let w, setups = timed_setups cfg ~user_pick 3 in
  let built = w.tb.Testbed.built in
  let g =
    {
      rng = Random.State.make [| seed; 2 |]; w; logins = built.Population.logins;
      shells = Hashtbl.create 1024;
      boxes = Hashtbl.create 1024; members = Hashtbl.create 1024;
    }
  in
  let recorded = ref [] in
  if !Trace.on then install_tracing w recorded;
  let r = { w; think_ns = 0; applied = 0 } in
  let cy = new_cycles () in
  (* Writes and DCM edits draw list memberships from disjoint halves of
     the mailing lists, so interleaving their chunks never makes one add
     a pair the other already added. *)
  let ml = built.Population.maillist_names in
  let half = Array.length ml / 2 in
  let write_lists = Array.sub ml 0 half
  and cycle_lists = Array.sub ml half (Array.length ml - half) in
  (* a DCM period in every 2nd round on campus_reads; every 3rd on
     campus_writes, whose replicas poll through the steps' sim time, and
     on dcm_steady, whose periods cost four times as much *)
  let every = if workload = "campus_reads" then 2 else 3 in
  let ncycles = count_cycles + (4 * (rounds / every)) in
  let cycles_chunk ph batches =
    chunk ph ~count0:count_cycles ~size:(Period every) (fun i ->
        do_cycle w cy ~index:i batches.(i))
  in
  (* ops per second of --seconds on the reference host (README.md) *)
  let reads_per_s = 25_000 and writes_per_s = 2_600 and steps_per_s = 1_400
  and logins_per_s = 60_000 in
  let writes_chunk ph =
    let n = per_round ~seconds ~per_s:writes_per_s ~quarters:1 in
    let writes = write_stream g ~lists:write_lists (count_writes + (rounds * n)) in
    chunk ph ~count0:count_writes ~size:(Ops n) (writes_step r writes)
  in
  (* every stream is generated from the seed before anything is timed *)
  let main, qph, wph, cph, chunks, replicas_check =
    match workload with
    | "campus_reads" ->
        let reads = read_stream g 32_768 in
        let q = new_phase "reads" and wp = new_phase "writes" and c = new_phase "cycles" in
        let writes = writes_chunk wp in
        let batches = cycle_batches g ~lists:cycle_lists ~mixed:false ncycles in
        ( q, q, wp, c,
          [
            chunk q ~count0:count_reads ~records:true
              ~size:(Ops (per_round ~seconds ~per_s:reads_per_s ~quarters:4))
              (reads_step r reads);
            writes;
            cycles_chunk c batches;
          ],
          false )
    | "campus_writes" ->
        let wp = new_phase "writes" and q = new_phase "replica_reads"
        and l = new_phase "logins" and c = new_phase "cycles" in
        let per = per_round ~seconds ~per_s:steps_per_s ~quarters:4 in
        let writes = write_stream g ~lists:write_lists (count_writes + (rounds * per)) in
        let nq = per_round ~seconds ~per_s:reads_per_s ~quarters:1 in
        let readers = Array.init (count_reads + (rounds * nq)) (fun _ -> pick_login g) in
        let logins = Array.init 32_768 (fun _ -> pick_login g) in
        let batches = cycle_batches g ~lists:cycle_lists ~mixed:false ncycles in
        ( wp, q, wp, c,
          [
            chunk wp ~count0:count_writes ~size:(Ops per) (writes_main_step r writes);
            chunk q ~count0:count_reads ~size:(Ops nq) ~records:true
              (replica_read_step r readers);
            chunk l ~count0:count_logins
              ~size:(Ops (per_round ~seconds ~per_s:logins_per_s ~quarters:1))
              (logins_step r logins);
            cycles_chunk c batches;
          ],
          true )
    | _ ->
        let batches = cycle_batches g ~lists:cycle_lists ~mixed:true ncycles in
        let reads = read_stream g 32_768 in
        let q = new_phase "reads" and wp = new_phase "writes" and c = new_phase "cycles" in
        let writes = writes_chunk wp in
        ( c, q, wp, c,
          [
            cycles_chunk c batches;
            chunk q ~count0:count_reads ~records:true
              ~size:(Ops (per_round ~seconds ~per_s:reads_per_s ~quarters:1))
              (reads_step r reads);
            writes;
          ],
          false )
  in
  run_rounds w chunks;
  let phases = List.map (fun c -> c.ph) chunks in
  let checks =
    ("outputs_match_full", outputs_match_full w)
    :: (if replicas_check then [ ("replicas_match", replicas_match w) ] else [])
  in
  List.iter
    (fun (n, ok) -> if not ok then prerr_endline ("bench: check failed: " ^ n))
    checks;
  let failed =
    List.fold_left (fun a ph -> a + ph.failed) 0 phases
    + List.length (List.filter (fun (_, ok) -> not ok) checks)
  in
  let attempted = List.fold_left (fun a ph -> a + ph.ops) 0 phases + List.length checks in
  let e2e = e2e_metrics ~setups ~wph cy in
  let layers =
    if not !Trace.on then []
    else begin
      let layers =
        wire_metrics !recorded @ glue_metrics w @ query_layer_metrics qph
        @ write_layer_metrics r wph @ dcm_metrics cph cy @ hesiod_metrics w cy
        @ gc_metrics main @ span_metrics ()
        @ [ ("host.slowdown", 1. /. run_scale ()) ]
      in
      Trace.write_chrome
        (Filename.concat !out (Printf.sprintf "%s-seed%d.trace.json" workload seed));
      layers
    end
  in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (failed = 0));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("e2e", json_nums e2e);
         ("layers", json_nums layers);
         ( "counts",
           json_nums (List.map (fun (k, v) -> (k, float_of_int v)) (counts phases cy)) );
       ])
