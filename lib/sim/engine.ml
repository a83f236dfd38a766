type event_id = int

module Key = struct
  type t = int * int (* time, sequence *)

  let compare (t1, s1) (t2, s2) =
    match Int.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end

module Queue_map = Map.Make (Key)

type event = {
  id : event_id;
  label : string;
  action : unit -> unit;
}

type t = {
  mutable now : int;
  mutable seq : int;
  mutable next_id : event_id;
  mutable queue : event Queue_map.t;
  cancelled : (event_id, unit) Hashtbl.t;
  rng : Rng.t;
  mutable obs : (Obs.Counter.counter * Obs.Counter.counter) option;
      (* (events_scheduled, events_fired) *)
}

let create ?(seed = 42) ?(start = 0) () =
  {
    now = start;
    seq = 0;
    next_id = 0;
    queue = Queue_map.empty;
    cancelled = Hashtbl.create 17;
    rng = Rng.create seed;
    obs = None;
  }

let now t = t.now
let now_sec t = t.now / 1000
let advance t d = if d > 0 then t.now <- t.now + d
let clock t () = t.now
let clock_sec t () = t.now / 1000
let rng t = t.rng

let attach_obs t o =
  Obs.set_clock o (clock t);
  t.obs <-
    Some
      ( Obs.Counter.make o "engine.events_scheduled",
        Obs.Counter.make o "engine.events_fired" )

let count_scheduled t =
  match t.obs with Some (s, _) -> Obs.Counter.incr s | None -> ()

let schedule t ~at label action =
  let at = max at t.now in
  let id = t.next_id in
  t.next_id <- id + 1;
  t.seq <- t.seq + 1;
  count_scheduled t;
  t.queue <- Queue_map.add (at, t.seq) { id; label; action } t.queue;
  id

let after t ~delay label action = schedule t ~at:(t.now + delay) label action

let cancel t id = Hashtbl.replace t.cancelled id ()

let every t ~interval label action =
  if interval <= 0 then invalid_arg "Engine.every: interval must be positive";
  let id = t.next_id in
  t.next_id <- id + 1;
  let rec arm at =
    t.seq <- t.seq + 1;
    count_scheduled t;
    let fire () =
      if not (Hashtbl.mem t.cancelled id) then begin
        arm (t.now + interval);
        action ()
      end
    in
    t.queue <- Queue_map.add (at, t.seq) { id; label; action = fire } t.queue
  in
  arm (t.now + interval);
  id

let step t =
  match Queue_map.min_binding_opt t.queue with
  | None -> false
  | Some ((at, _seq) as key, ev) ->
      t.queue <- Queue_map.remove key t.queue;
      t.now <- max t.now at;
      if not (Hashtbl.mem t.cancelled ev.id) then begin
        (match t.obs with Some (_, f) -> Obs.Counter.incr f | None -> ());
        ev.action ()
      end;
      true

let run_until t limit =
  let rec go () =
    match Queue_map.min_binding_opt t.queue with
    | Some ((at, _), _) when at <= limit ->
        ignore (step t);
        go ()
    | _ -> ()
  in
  go ();
  t.now <- max t.now limit

let run_for t d = run_until t (t.now + d)

let pending t =
  Queue_map.fold
    (fun _ ev acc -> if Hashtbl.mem t.cancelled ev.id then acc else acc + 1)
    t.queue 0
