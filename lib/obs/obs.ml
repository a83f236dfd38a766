(* Sim-time observability: metrics registry, span ring, log channels.
   Zero dependencies; time is an injected clock so recorded values are
   deterministic under the discrete-event engine. *)

(* ---- histograms: exact below 64, then 32 sub-buckets per octave ---- *)

let octaves = 57 (* msb 6 .. 62 on 63-bit ints *)
let n_buckets = 64 + (octaves * 32)

let bucket_of v =
  let v = if v < 0 then 0 else v in
  if v < 64 then v
  else begin
    let m = ref 6 in
    while v lsr (!m + 1) <> 0 do
      incr m
    done;
    64 + ((!m - 6) * 32) + ((v lsr (!m - 5)) land 31)
  end

let bucket_upper idx =
  if idx < 64 then idx
  else
    let m = 6 + ((idx - 64) / 32) in
    let sub = (idx - 64) mod 32 in
    ((1 lsl m) lor (sub lsl (m - 5))) + (1 lsl (m - 5)) - 1

type hist = {
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

let hist_reset h =
  Array.fill h.buckets 0 n_buckets 0;
  h.h_count <- 0;
  h.h_sum <- 0;
  h.h_min <- 0;
  h.h_max <- 0

let hist_observe h v =
  let v = if v < 0 then 0 else v in
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  if h.h_count = 0 || v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v

let hist_quantile h p =
  if h.h_count = 0 then 0
  else begin
    let rank = int_of_float (ceil (p *. float_of_int h.h_count)) in
    let rank = if rank < 1 then 1 else if rank > h.h_count then h.h_count else rank in
    let res = ref h.h_max in
    (try
       let acc = ref 0 in
       for i = 0 to n_buckets - 1 do
         acc := !acc + h.buckets.(i);
         if !acc >= rank then begin
           res := bucket_upper i;
           raise Exit
         end
       done
     with Exit -> ());
    if !res > h.h_max then h.h_max else if !res < h.h_min then h.h_min else !res
  end

(* Quantile over a raw bucket-delta array (windowed SLO evaluation):
   same rank walk, but min/max are only known at bucket granularity. *)
let buckets_quantile bk total p =
  if total <= 0 then 0
  else begin
    let rank = int_of_float (ceil (p *. float_of_int total)) in
    let rank = if rank < 1 then 1 else if rank > total then total else rank in
    let res = ref 0 in
    (try
       let acc = ref 0 in
       for i = 0 to n_buckets - 1 do
         acc := !acc + bk.(i);
         if !acc >= rank then begin
           res := bucket_upper i;
           raise Exit
         end
       done
     with Exit -> ());
    !res
  end

let buckets_max bk =
  let res = ref 0 in
  for i = 0 to n_buckets - 1 do
    if bk.(i) > 0 then res := bucket_upper i
  done;
  !res

type summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;
}

let summarize h =
  {
    count = h.h_count;
    sum = h.h_sum;
    min = h.h_min;
    max = h.h_max;
    p50 = hist_quantile h 0.50;
    p95 = hist_quantile h 0.95;
    p99 = hist_quantile h 0.99;
  }

(* ---- registry ---- *)

type metric = C of int ref | G of int ref | H of hist

type span = {
  id : int;
  seq : int;
  name : string;
  mutable attrs : (string * string) list;
  start_ms : int;
  mutable stop_ms : int;
  parent_name : string option;
  s_trace : string;
  s_uid : string;
  parent_uid : string option;
}

type event =
  | Ev_span of span
  | Ev_instant of { i_seq : int; i_name : string; i_ts : int; i_attrs : (string * string) list }

type log_entry = {
  l_ts_ms : int;
  l_channel : string;
  l_msg : string;
  l_attrs : (string * string) list;
}

type t = {
  mutable clock : unit -> int;
  mutable origin : string;
  metrics : (string, metric) Hashtbl.t;
  mutable next_seq : int;
  mutable next_id : int;
  ring : event option array;
  mutable ring_written : int;
  lring : log_entry option array;
  mutable lring_written : int;
  mutable open_spans : span list;  (* innermost first *)
}

let create ?(ring = 4096) ?(log_ring = 1024) () =
  {
    clock = (fun () -> 0);
    origin = "";
    metrics = Hashtbl.create 64;
    next_seq = 0;
    next_id = 0;
    ring = Array.make (max 1 ring) None;
    ring_written = 0;
    lring = Array.make (max 1 log_ring) None;
    lring_written = 0;
    open_spans = [];
  }

let default = create ()
let set_clock t f = t.clock <- f
let now_ms t = t.clock ()
let set_origin t s = t.origin <- s

let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C r | G r -> r := 0
      | H h -> hist_reset h)
    t.metrics;
  Array.fill t.ring 0 (Array.length t.ring) None;
  t.ring_written <- 0;
  Array.fill t.lring 0 (Array.length t.lring) None;
  t.lring_written <- 0;
  t.open_spans <- [];
  t.next_seq <- 0;
  t.next_id <- 0;
  t.origin <- "";
  t.clock <- (fun () -> 0)

let kind_err name = invalid_arg ("Obs: metric kind mismatch for " ^ name)

let find_or_add t name mk classify =
  match Hashtbl.find_opt t.metrics name with
  | Some m -> ( match classify m with Some v -> v | None -> kind_err name)
  | None ->
      let m, v = mk () in
      Hashtbl.add t.metrics name m;
      v

module Counter = struct
  type counter = int ref

  let make t name =
    find_or_add t name
      (fun () ->
        let r = ref 0 in
        (C r, r))
      (function C r -> Some r | _ -> None)

  let incr r = incr r
  let add r n = r := !r + n
  let get r = !r
end

module Gauge = struct
  type gauge = int ref

  let make t name =
    find_or_add t name
      (fun () ->
        let r = ref 0 in
        (G r, r))
      (function G r -> Some r | _ -> None)

  let set r v = r := v
  let add r n = r := !r + n
  let get r = !r
end

module Histogram = struct
  type histogram = hist

  let make t name =
    find_or_add t name
      (fun () ->
        let h =
          { buckets = Array.make n_buckets 0; h_count = 0; h_sum = 0; h_min = 0; h_max = 0 }
        in
        (H h, h))
      (function H h -> Some h | _ -> None)

  let observe = hist_observe
  let count h = h.h_count
  let sum h = h.h_sum
  let quantile = hist_quantile
end

(* ---- rings ---- *)

let push_ring slots written ev =
  let cap = Array.length slots in
  slots.(written mod cap) <- Some ev;
  written + 1

(* Event-ring push that accounts for evicted spans: overwriting a
   completed span severs parent links of any later children that point
   at it, so the eviction is surfaced in [obs.spans.dropped] and the
   read-back paths clamp now-dangling parents to the root. *)
let push_event t ev =
  let cap = Array.length t.ring in
  (match t.ring.(t.ring_written mod cap) with
  | Some (Ev_span _) -> Counter.incr (Counter.make t "obs.spans.dropped")
  | _ -> ());
  t.ring.(t.ring_written mod cap) <- Some ev;
  t.ring_written <- t.ring_written + 1

let ring_to_list slots written =
  let cap = Array.length slots in
  let n = if written < cap then written else cap in
  let first = if written < cap then 0 else written mod cap in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match slots.((first + i) mod cap) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out

(* ---- trace contexts ---- *)

type ctx = { trace_id : string; span_id : string }

let ctx_to_string c = c.trace_id ^ "/" ^ c.span_id

let ctx_of_string s =
  match String.index_opt s '/' with
  | Some i when i > 0 && i < String.length s - 1 ->
      Some
        {
          trace_id = String.sub s 0 i;
          span_id = String.sub s (i + 1) (String.length s - i - 1);
        }
  | _ -> None

(* Span uids are "<origin>#<n>": unique within a registry by the id
   counter, across registries by [set_origin] labels. *)
let uid_of t id = t.origin ^ "#" ^ string_of_int id

let is_local_uid t u =
  let no = String.length t.origin in
  String.length u > no && u.[no] = '#' && String.sub u 0 no = t.origin

(* ---- spans ---- *)

type span_id = span

let span_begin t ?parent_ctx ?(attrs = []) name =
  let uid = uid_of t t.next_id in
  let s_trace, parent_uid, parent_name =
    match parent_ctx with
    | Some c ->
        let pname =
          match List.find_opt (fun o -> o.s_uid = c.span_id) t.open_spans with
          | Some o -> Some o.name
          | None -> None
        in
        (c.trace_id, Some c.span_id, pname)
    | None -> (
        match t.open_spans with
        | [] -> ("t" ^ uid, None, None)
        | p :: _ -> (p.s_trace, Some p.s_uid, Some p.name))
  in
  let s =
    {
      id = t.next_id;
      seq = t.next_seq;
      name;
      attrs;
      start_ms = now_ms t;
      stop_ms = -1;
      parent_name;
      s_trace;
      s_uid = uid;
      parent_uid;
    }
  in
  t.next_id <- t.next_id + 1;
  t.next_seq <- t.next_seq + 1;
  t.open_spans <- s :: t.open_spans;
  s

let span_end t ?(attrs = []) s =
  if s.stop_ms < 0 then begin
    s.stop_ms <- now_ms t;
    if attrs <> [] then s.attrs <- s.attrs @ attrs;
    t.open_spans <- List.filter (fun o -> o.id <> s.id) t.open_spans;
    push_event t (Ev_span s)
  end

let with_span t ?parent_ctx ?attrs name f =
  let s = span_begin t ?parent_ctx ?attrs name in
  Fun.protect ~finally:(fun () -> span_end t s) f

let span_ctx s = { trace_id = s.s_trace; span_id = s.s_uid }

let current_ctx t =
  match t.open_spans with [] -> None | s :: _ -> Some (span_ctx s)

let instant t ?(attrs = []) name =
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  push_event t
    (Ev_instant { i_seq = seq; i_name = name; i_ts = now_ms t; i_attrs = attrs })

type span_info = {
  sp_name : string;
  sp_start_ms : int;
  sp_dur_ms : int;
  sp_parent : string option;
  sp_attrs : (string * string) list;
  sp_trace : string;
  sp_id : string;
  sp_parent_id : string option;
}

let completed_spans t =
  let ring = ring_to_list t.ring t.ring_written in
  (* Uids still resolvable on this registry: completed spans in the
     ring plus spans still open.  A local parent uid outside this set
     was evicted by ring overflow — clamp the child to the root rather
     than exporting a dangling reference. *)
  let present = Hashtbl.create 64 in
  List.iter
    (function Ev_span s -> Hashtbl.replace present s.s_uid () | Ev_instant _ -> ())
    ring;
  List.iter (fun s -> Hashtbl.replace present s.s_uid ()) t.open_spans;
  List.filter_map
    (function
      | Ev_span s ->
          let sp_parent_id, sp_parent =
            match s.parent_uid with
            | Some u when is_local_uid t u && not (Hashtbl.mem present u) ->
                (None, None)
            | pu -> (pu, s.parent_name)
          in
          Some
            {
              sp_name = s.name;
              sp_start_ms = s.start_ms;
              sp_dur_ms = s.stop_ms - s.start_ms;
              sp_parent;
              sp_attrs = s.attrs;
              sp_trace = s.s_trace;
              sp_id = s.s_uid;
              sp_parent_id;
            }
      | Ev_instant _ -> None)
    ring

(* ---- trace export ---- *)

type trace_ev = { ph : char; ev_name : string; ts_us : int; ev_args : (string * string) list }

let span_args s =
  s.attrs
  @ ("trace", s.s_trace) :: ("span", s.s_uid)
    :: (match s.parent_uid with Some u -> [ ("parent", u) ] | None -> [])

let all_spans ?trace t =
  let now = now_ms t in
  let keep s = match trace with None -> true | Some tr -> s.s_trace = tr in
  List.filter keep
    (List.filter_map (function Ev_span s -> Some s | Ev_instant _ -> None)
       (ring_to_list t.ring t.ring_written))
  @ List.filter keep
      (List.map
         (fun s -> { s with stop_ms = (if now > s.start_ms then now else s.start_ms) })
         t.open_spans)

let duration_events ?trace t =
  let spans = all_spans ?trace t in
  let spans =
    List.sort
      (fun a b ->
        if a.start_ms <> b.start_ms then compare a.start_ms b.start_ms
        else if a.stop_ms <> b.stop_ms then compare b.stop_ms a.stop_ms
        else compare a.seq b.seq)
      spans
  in
  (* Stack-based emission: clamp so B/E pairs balance, nest, and the
     timestamp stream is non-decreasing even when CPS-style code closes
     spans out of LIFO order. *)
  let out = ref [] in
  let last = ref 0 in
  let emit ph name ts args =
    let ts = if ts < !last then !last else ts in
    last := ts;
    out := { ph; ev_name = name; ts_us = ts * 1000; ev_args = args } :: !out
  in
  let stack = ref [] in
  let pop_until start =
    while
      match !stack with
      | top :: rest when top.stop_ms <= start ->
          emit 'E' top.name top.stop_ms [];
          stack := rest;
          true
      | _ -> false
    do
      ()
    done
  in
  List.iter
    (fun s ->
      pop_until s.start_ms;
      let s =
        match !stack with
        | top :: _ when s.stop_ms > top.stop_ms -> { s with stop_ms = top.stop_ms }
        | _ -> s
      in
      emit 'B' s.name s.start_ms (span_args s);
      stack := s :: !stack)
    spans;
  List.iter (fun s -> emit 'E' s.name s.stop_ms []) !stack;
  stack := [];
  List.rev !out

let instant_events t =
  List.filter_map
    (function
      | Ev_instant { i_seq; i_name; i_ts; i_attrs } -> Some (i_seq, i_name, i_ts, i_attrs)
      | Ev_span _ -> None)
    (ring_to_list t.ring t.ring_written)
  |> List.sort (fun (qa, _, ta, _) (qb, _, tb, _) ->
         if ta <> tb then compare ta tb else compare qa qb)
  |> List.map (fun (_, name, ts, attrs) ->
         { ph = 'i'; ev_name = name; ts_us = ts * 1000; ev_args = attrs })

let trace_events ?trace t =
  (* Instants carry no trace context, so a filtered export is spans only. *)
  duration_events ?trace t
  @ (match trace with Some _ -> [] | None -> instant_events t)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let add_trace_ev b ~pid e =
  let tid = if e.ph = 'i' then 2 else 1 in
  Buffer.add_string b
    (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%d,\"pid\":%d,\"tid\":%d"
       (json_escape e.ev_name) e.ph e.ts_us pid tid);
  if e.ph = 'i' then Buffer.add_string b ",\"s\":\"t\"";
  if e.ev_args <> [] then begin
    Buffer.add_string b ",\"args\":{";
    let f = ref true in
    List.iter
      (fun (k, v) ->
        if not !f then Buffer.add_char b ',';
        f := false;
        Buffer.add_string b
          (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      e.ev_args;
    Buffer.add_char b '}'
  end;
  Buffer.add_char b '}'

let trace_json ?trace t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun e ->
      if not !first then Buffer.add_char b ',';
      first := false;
      add_trace_ev b ~pid:1 e)
    (trace_events ?trace t);
  Buffer.add_string b "]}";
  Buffer.contents b

let merge_trace_json ?trace regs =
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char b ',' in
  List.iteri
    (fun i (label, _) ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"args\":{\"name\":\"%s\"}}"
           (i + 1) (json_escape label)))
    regs;
  List.iteri
    (fun i (_, reg) ->
      List.iter (fun e -> sep (); add_trace_ev b ~pid:(i + 1) e) (trace_events ?trace reg))
    regs;
  (* Flow arrows for parent links that cross lanes: the wire hops. *)
  let owner = Hashtbl.create 64 in
  List.iteri
    (fun i (_, reg) ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem owner s.s_uid) then
            Hashtbl.replace owner s.s_uid (i + 1, s.start_ms))
        (all_spans ?trace reg))
    regs;
  let fid = ref 0 in
  List.iteri
    (fun i (_, reg) ->
      List.iter
        (fun s ->
          match s.parent_uid with
          | None -> ()
          | Some u -> (
              match Hashtbl.find_opt owner u with
              | Some (ppid, pstart) when ppid <> i + 1 ->
                  incr fid;
                  let t_src = if s.start_ms > pstart then s.start_ms else pstart in
                  sep ();
                  Buffer.add_string b
                    (Printf.sprintf
                       "{\"name\":\"ctx\",\"cat\":\"ctx\",\"ph\":\"s\",\"id\":%d,\"pid\":%d,\"tid\":1,\"ts\":%d}"
                       !fid ppid (t_src * 1000));
                  sep ();
                  Buffer.add_string b
                    (Printf.sprintf
                       "{\"name\":\"ctx\",\"cat\":\"ctx\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"pid\":%d,\"tid\":1,\"ts\":%d}"
                       !fid (i + 1) (t_src * 1000))
              | _ -> ()))
        (all_spans ?trace reg))
    regs;
  Buffer.add_string b "]}";
  Buffer.contents b

(* ---- log channels ---- *)

let log t ~channel ?(attrs = []) msg =
  t.lring_written <-
    push_ring t.lring t.lring_written
      { l_ts_ms = now_ms t; l_channel = channel; l_msg = msg; l_attrs = attrs }

let logs t ?channel () =
  let all = ring_to_list t.lring t.lring_written in
  match channel with
  | None -> all
  | Some c -> List.filter (fun e -> e.l_channel = c) all

(* ---- reading back ---- *)

let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l

let counters t =
  Hashtbl.fold (fun k m acc -> match m with C r -> (k, !r) :: acc | _ -> acc) t.metrics []
  |> by_name

let gauges t =
  Hashtbl.fold (fun k m acc -> match m with G r -> (k, !r) :: acc | _ -> acc) t.metrics []
  |> by_name

let histograms t =
  Hashtbl.fold (fun k m acc -> match m with H h -> (k, summarize h) :: acc | _ -> acc)
    t.metrics []
  |> by_name

let find_counter t name =
  match Hashtbl.find_opt t.metrics name with Some (C r) -> Some !r | _ -> None

let find_gauge t name =
  match Hashtbl.find_opt t.metrics name with Some (G r) -> Some !r | _ -> None

let find_histogram t name =
  match Hashtbl.find_opt t.metrics name with Some (H h) -> Some (summarize h) | _ -> None

let dump t =
  let b = Buffer.create 1024 in
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "counter %s %d\n" k v)) (counters t);
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "gauge %s %d\n" k v)) (gauges t);
  List.iter
    (fun (k, s) ->
      Buffer.add_string b
        (Printf.sprintf "histogram %s count=%d sum=%d min=%d max=%d p50=%d p95=%d p99=%d\n" k
           s.count s.sum s.min s.max s.p50 s.p95 s.p99))
    (histograms t);
  Buffer.contents b

(* ---- glob ---- *)

(* Two-pointer match that backtracks only to the last '*', so time
   stays linear in practice however many stars a pattern holds: the
   stats queries take their patterns from any client, and
   [Relation.Glob.matches] is this function. *)
let glob_match pat s =
  let np = String.length pat and ns = String.length s in
  let rec go p i star_p star_i =
    if i >= ns then
      let rec only_stars p = p >= np || (pat.[p] = '*' && only_stars (p + 1)) in
      only_stars p
    else if p < np && pat.[p] = '*' then go (p + 1) i (p + 1) i
    else if p < np && (pat.[p] = '?' || pat.[p] = s.[i]) then
      go (p + 1) (i + 1) star_p star_i
    else if star_p >= 0 then go star_p (star_i + 1) star_p (star_i + 1)
    else false
  in
  go 0 0 (-1) (-1)

(* ---- data freshness ---- *)

(* Per-host "how far behind is the data this host serves" gauges, fed
   by replica apply and DCM install, read by the SLO engine.  Names:
   prop.host.<host>.last_commit_s (newest applied commit's sim time)
   and prop.host.<host>.staleness_s (now - last_commit_s; [refresh]
   re-derives it so hosts that stop applying keep growing stale). *)
module Freshness = struct
  let prefix = "prop.host."
  let last_suffix = ".last_commit_s"
  let stale_suffix = ".staleness_s"

  let note_commit t ~host ~commit_s =
    let host = String.lowercase_ascii host in
    let g = Gauge.make t (prefix ^ host ^ last_suffix) in
    if commit_s > Gauge.get g then Gauge.set g commit_s;
    let now_s = now_ms t / 1000 in
    let last = Gauge.get g in
    Gauge.set
      (Gauge.make t (prefix ^ host ^ stale_suffix))
      (if now_s > last then now_s - last else 0)

  let refresh t =
    let now_s = now_ms t / 1000 in
    let np = String.length prefix and nl = String.length last_suffix in
    List.iter
      (fun (name, last) ->
        let n = String.length name in
        if
          last > 0 && n > np + nl
          && String.sub name 0 np = prefix
          && String.sub name (n - nl) nl = last_suffix
        then begin
          let host = String.sub name np (n - np - nl) in
          Gauge.set
            (Gauge.make t (prefix ^ host ^ stale_suffix))
            (if now_s > last then now_s - last else 0)
        end)
      (gauges t)
end

(* ---- declarative SLOs ---- *)

module Slo = struct
  type stat = P50 | P95 | P99 | Max | Mean | Count | Value
  type op = Le | Ge

  type objective = {
    o_name : string;
    o_metric : string;  (* glob over histogram (or, for Value, gauge) names *)
    o_stat : stat;
    o_op : op;
    o_threshold : int;
    o_window_ms : int;  (* 0 = all-time *)
  }

  type verdict = Green | Yellow | Red

  type result = {
    r_objective : objective;
    r_value : int;
    r_samples : int;
    r_verdict : verdict;
  }

  let stat_name = function
    | P50 -> "p50"
    | P95 -> "p95"
    | P99 -> "p99"
    | Max -> "max"
    | Mean -> "mean"
    | Count -> "count"
    | Value -> "value"

  let op_name = function Le -> "<=" | Ge -> ">="
  let verdict_name = function Green -> "green" | Yellow -> "yellow" | Red -> "red"

  type snap_h = { sh_name : string; sh_buckets : int array; sh_count : int; sh_sum : int }
  type snap = { sn_ts : int; sn_hists : snap_h list }

  type slo = {
    s_obs : t;
    mutable s_objectives : objective list;
    mutable s_snaps : snap list;  (* newest first *)
    s_open : (string, unit) Hashtbl.t;  (* objective name -> breach incident open *)
  }

  let create obs = { s_obs = obs; s_objectives = []; s_snaps = []; s_open = Hashtbl.create 8 }
  let default = create default

  let reset s =
    s.s_objectives <- [];
    s.s_snaps <- [];
    Hashtbl.reset s.s_open

  let add s o = s.s_objectives <- s.s_objectives @ [ o ]

  let hists_of reg =
    Hashtbl.fold
      (fun k m acc -> match m with H h -> (k, h) :: acc | _ -> acc)
      reg.metrics []
    |> by_name

  let tick s =
    let now = now_ms s.s_obs in
    let sn =
      {
        sn_ts = now;
        sn_hists =
          List.map
            (fun (k, h) ->
              { sh_name = k; sh_buckets = Array.copy h.buckets; sh_count = h.h_count; sh_sum = h.h_sum })
            (hists_of s.s_obs);
      }
    in
    let maxw = List.fold_left (fun a o -> max a o.o_window_ms) 0 s.s_objectives in
    (* Keep every snapshot inside the widest window plus the newest one
       beyond it (the window baseline); drop the rest. *)
    let rec prune kept = function
      | [] -> List.rev kept
      | x :: rest ->
          if x.sn_ts >= now - maxw then prune (x :: kept) rest else List.rev (x :: kept)
    in
    s.s_snaps <- prune [] (sn :: s.s_snaps)

  let baseline s ~now ~w =
    if w <= 0 then None
    else List.find_opt (fun sn -> sn.sn_ts <= now - w) s.s_snaps

  let eval_objective s ~now o =
    match o.o_stat with
    | Value ->
        let gs = List.filter (fun (k, _) -> glob_match o.o_metric k) (gauges s.s_obs) in
        let v = List.fold_left (fun a (_, x) -> max a x) 0 gs in
        (v, List.length gs)
    | _ ->
        let hs = List.filter (fun (k, _) -> glob_match o.o_metric k) (hists_of s.s_obs) in
        let base = baseline s ~now ~w:o.o_window_ms in
        let diff = Array.make n_buckets 0 in
        let count = ref 0 and sum = ref 0 in
        List.iter
          (fun (k, h) ->
            let bbk, bc, bs =
              match base with
              | None -> (None, 0, 0)
              | Some sn -> (
                  match List.find_opt (fun x -> x.sh_name = k) sn.sn_hists with
                  | Some x -> (Some x.sh_buckets, x.sh_count, x.sh_sum)
                  | None -> (None, 0, 0))
            in
            for i = 0 to n_buckets - 1 do
              let b = match bbk with Some a -> a.(i) | None -> 0 in
              if h.buckets.(i) > b then diff.(i) <- diff.(i) + h.buckets.(i) - b
            done;
            count := !count + (h.h_count - bc);
            sum := !sum + (h.h_sum - bs))
          hs;
        let c = if !count < 0 then 0 else !count in
        let v =
          match o.o_stat with
          | P50 -> buckets_quantile diff c 0.50
          | P95 -> buckets_quantile diff c 0.95
          | P99 -> buckets_quantile diff c 0.99
          | Max -> buckets_max diff
          | Mean -> if c = 0 then 0 else !sum / c
          | Count -> c
          | Value -> 0
        in
        (v, c)

  let verdict_of o ~value ~samples =
    if samples = 0 then Yellow (* no data in window *)
    else
      let met =
        match o.o_op with Le -> value <= o.o_threshold | Ge -> value >= o.o_threshold
      in
      if not met then Red
      else
        let warn =
          (* within 10% of the threshold, inclusive: exactly-at-threshold
             is met but worth warning about *)
          match o.o_op with
          | Le -> value * 10 >= o.o_threshold * 9
          | Ge -> value * 10 <= o.o_threshold * 11
        in
        if warn then Yellow else Green

  let evaluate s =
    let now = now_ms s.s_obs in
    List.map
      (fun o ->
        let value, samples = eval_objective s ~now o in
        { r_objective = o; r_value = value; r_samples = samples; r_verdict = verdict_of o ~value ~samples })
      s.s_objectives

  let check s ~notify =
    List.map
      (fun r ->
        let o = r.r_objective in
        (if r.r_verdict = Red then begin
           if not (Hashtbl.mem s.s_open o.o_name) then begin
             Hashtbl.replace s.s_open o.o_name ();
             notify
               (Printf.sprintf "SLO breach: %s: %s(%s) = %d, target %s %d%s" o.o_name
                  (stat_name o.o_stat) o.o_metric r.r_value (op_name o.o_op) o.o_threshold
                  (if o.o_window_ms > 0 then Printf.sprintf " over %dms" o.o_window_ms else ""))
           end
         end
         else Hashtbl.remove s.s_open o.o_name);
        r)
      (evaluate s)
end
