type rowid = int

type stats = {
  mutable appends : int;
  mutable updates : int;
  mutable deletes : int;
  mutable modtime : int;
  mutable del_time : int;
}

module Int_set = Set.Make (Int)

(* A bucket carries its cardinality so best-bucket selection is O(1)
   instead of O(n) [Int_set.cardinal] per probe. *)
type bucket = { bset : Int_set.t; bsize : int }

let empty_bucket = { bset = Int_set.empty; bsize = 0 }

type index = {
  col : int;
  ctype : Value.ctype;
  buckets : (string, bucket) Hashtbl.t;
  mutable version : int;
      (* bumps on insert/delete and on updates that change this column's
         value — NOT on updates that leave it alone.  Generators key
         memoized projections on the versions of exactly the columns
         they read, so e.g. a shell edit leaves a login-sorted user
         projection warm. *)
  mutable sorted : (Value.t * bucket) array;
      (* key-ordered view for range/prefix scans, rebuilt lazily *)
  mutable sorted_version : int;  (* [version] it was built at; -1 = never *)
  dirty : (string, unit) Hashtbl.t;
      (* keys whose buckets changed since [sorted] was built; lets the
         next range query splice the delta into the existing array
         instead of re-sorting all n keys.  Only tracked once a sorted
         view exists (bulk load pays nothing). *)
  mutable dirty_overflow : bool;
      (* too many dirty keys to bother: next view does a full rebuild *)
  mutable folded : (string, bucket) Hashtbl.t;
      (* lowercase-keyed buckets serving case-folded equality *)
  mutable folded_version : int;
}

(* Access paths of a compiled plan; see "Compiled plans" below. *)
type candidate =
  | C_slot of index * int  (* probe by the rendered slot value *)
  | C_key of index * string  (* probe by a literal key (non-pattern glob) *)
  | C_fold of index * string  (* folded-bucket probe, lowercased key *)
  | C_union of candidate list  (* OR of probeable atoms *)

type path =
  | P_scan
  | P_probe of candidate list  (* And-reachable; runtime picks smallest *)
  | P_range of index * (Pred.cmp * int) list  (* cmps on one indexed column *)
  | P_prefix of index * string * string option
      (* literal glob prefix on a string column: half-open key range
         [prefix, successor); [None] = no finite successor (all 0xff) *)

(* A shape compiled against one table. *)
type compiled = {
  ceval : Value.t array -> Value.t array -> bool;  (* params -> row -> bool *)
  cpath : path;
}

(* Change log: a fixed ring of recently touched rowids.  Consumers
   (row-grain generator splicing) take a cursor, and later ask for the
   rowids touched since; if more than [chlog_cap] events happened in
   between the answer is None and they fall back to a full rebuild.
   Power of two so the slot is a mask, not a mod. *)
let chlog_cap = 8192

(* Rows live in a growable array indexed by rowid (rowids are allocated
   densely, so the slot number IS the id).  Scans then walk the array in
   rowid order directly — no hashing, no sort to restore insertion
   order — which is what makes full-table folds in the DCM generators
   and the closure build cheap. *)
type t = {
  schema : Schema.t;
  uid : int;  (* process-unique; distinguishes same-named tables across dbs *)
  mutable rows : Value.t array option array;  (* slot = rowid; None = hole *)
  mutable next_id : rowid;
  mutable live : int;  (* slots holding Some *)
  indexes : index list;  (* one per indexed column *)
  stats : stats;
  clock : unit -> int;
  col_max : int array;
      (* per-column upper bound on every Int value ever stored; watch
         checks compare it against their horizon instead of scanning
         rows.  Never lowered (deleted rows keep their contribution):
         an over-approximation only risks a spurious — idempotent —
         rebuild, never a missed one. *)
  chlog : int array;  (* ring of touched rowids, slot = seq land mask *)
  mutable chlog_seq : int;  (* next sequence number to write *)
  plans : (Pred.shape, compiled) Hashtbl.t;  (* see [prepare] *)
}

let next_uid = ref 0

let create ?(indexed = []) ~clock schema =
  let indexes =
    List.map
      (fun cname ->
        let col = Schema.index_of schema cname in
        {
          col;
          ctype = (Schema.columns schema).(col).Schema.ctype;
          buckets = Hashtbl.create 64;
          version = 0;
          sorted = [||];
          sorted_version = -1;
          dirty = Hashtbl.create 0;
          dirty_overflow = false;
          folded = Hashtbl.create 0;
          folded_version = -1;
        })
      indexed
  in
  incr next_uid;
  {
    schema;
    uid = !next_uid;
    rows = Array.make 64 None;
    next_id = 0;
    live = 0;
    indexes;
    stats = { appends = 0; updates = 0; deletes = 0; modtime = 0; del_time = 0 };
    clock;
    col_max = Array.make (Array.length (Schema.columns schema)) min_int;
    chlog = Array.make chlog_cap 0;
    chlog_seq = 0;
    plans = Hashtbl.create 8;
  }

let schema t = t.schema
let uid t = t.uid

let row_of t id = if id >= 0 && id < t.next_id then t.rows.(id) else None

let key_of v = Value.to_string v

(* Delta tracking for the sorted view: a small bounded set of keys whose
   buckets moved since the view was last built.  Past [dirty_limit]
   distinct keys a merge would approach a rebuild anyway, so we drop the
   set and flag a full rebuild.  Nothing is tracked before the first
   build ([sorted_version = -1]): bulk loads pay zero. *)
let dirty_limit = 4096

let note_dirty ix k =
  if ix.sorted_version >= 0 && not ix.dirty_overflow
     && not (Hashtbl.mem ix.dirty k)
  then
    if Hashtbl.length ix.dirty >= dirty_limit then begin
      ix.dirty_overflow <- true;
      Hashtbl.reset ix.dirty
    end
    else Hashtbl.replace ix.dirty k ()

let bucket_add ix k id =
  let b = Option.value (Hashtbl.find_opt ix.buckets k) ~default:empty_bucket in
  let bset = Int_set.add id b.bset in
  (* stdlib sets return the argument physically when unchanged, so the
     tracked size cannot drift even on redundant adds *)
  if bset != b.bset then begin
    Hashtbl.replace ix.buckets k { bset; bsize = b.bsize + 1 };
    note_dirty ix k
  end

let bucket_remove ix k id =
  match Hashtbl.find_opt ix.buckets k with
  | None -> ()
  | Some b ->
      let bset = Int_set.remove id b.bset in
      if bset != b.bset then begin
        if Int_set.is_empty bset then Hashtbl.remove ix.buckets k
        else Hashtbl.replace ix.buckets k { bset; bsize = b.bsize - 1 };
        note_dirty ix k
      end

(* Lazy derived views, keyed on the index version.  [clear]/restore need
   no special-casing: they bump [version], which invalidates both. *)

let sorted_rebuilds = Obs.Counter.make Obs.default "table.sorted.rebuild"
let sorted_merges = Obs.Counter.make Obs.default "table.sorted.merge"

let rebuild_sorted ix =
  Obs.Counter.incr sorted_rebuilds;
  let acc =
    Hashtbl.fold
      (fun k b l -> (Value.of_string ix.ctype k, b) :: l)
      ix.buckets []
  in
  let a = Array.of_list acc in
  Array.sort (fun (u, _) (v, _) -> Value.compare u v) a;
  ix.sorted <- a

(* Splice the dirty keys into the existing key-ordered array:
   O(n + k log k) instead of the O(n log n) full re-sort.  The old array
   snapshots immutable bucket records, so entries for untouched keys are
   still current; every dirty key is refreshed from the live hashtable
   (absent = the key emptied out and its entry is dropped). *)
let merge_sorted ix =
  Obs.Counter.incr sorted_merges;
  let d =
    Array.of_list
      (Hashtbl.fold
         (fun k () l ->
           (Value.of_string ix.ctype k, Hashtbl.find_opt ix.buckets k) :: l)
         ix.dirty [])
  in
  Array.sort (fun (u, _) (v, _) -> Value.compare u v) d;
  let old = ix.sorted in
  let n = Array.length old and k = Array.length d in
  if n + k = 0 then ix.sorted <- [||]
  else begin
    let out = Array.make (n + k) (Value.Int 0, empty_bucket) in
    let oi = ref 0 and di = ref 0 and w = ref 0 in
    let put e = out.(!w) <- e; incr w in
    let put_delta (v, b) = match b with Some b -> put (v, b) | None -> () in
    while !oi < n || !di < k do
      if !di >= k then begin put old.(!oi); incr oi end
      else if !oi >= n then begin put_delta d.(!di); incr di end
      else begin
        let ov, _ = old.(!oi) and dv, _ = d.(!di) in
        let c = Value.compare ov dv in
        if c < 0 then begin put old.(!oi); incr oi end
        else if c > 0 then begin put_delta d.(!di); incr di end
        else begin
          (* dirty key supersedes (or deletes) its stale entry *)
          put_delta d.(!di);
          incr oi;
          incr di
        end
      end
    done;
    ix.sorted <- (if !w = n + k then out else Array.sub out 0 !w)
  end

let sorted_view ix =
  if ix.sorted_version <> ix.version then begin
    let k = Hashtbl.length ix.dirty in
    if ix.sorted_version >= 0 && not ix.dirty_overflow
       && 2 * k <= Array.length ix.sorted
    then merge_sorted ix
    else rebuild_sorted ix;
    ix.sorted_version <- ix.version;
    Hashtbl.reset ix.dirty;
    ix.dirty_overflow <- false
  end;
  ix.sorted

let folded_view ix =
  if ix.folded_version <> ix.version then begin
    let tbl = Hashtbl.create (max 16 (Hashtbl.length ix.buckets)) in
    Hashtbl.iter
      (fun k b ->
        let fk = String.lowercase_ascii k in
        let prev = Option.value (Hashtbl.find_opt tbl fk) ~default:empty_bucket in
        Hashtbl.replace tbl fk
          { bset = Int_set.union prev.bset b.bset; bsize = prev.bsize + b.bsize })
      ix.buckets;
    ix.folded <- tbl;
    ix.folded_version <- ix.version
  end;
  ix.folded

let index_add t id row =
  List.iter
    (fun ix ->
      ix.version <- ix.version + 1;
      bucket_add ix (key_of row.(ix.col)) id)
    t.indexes

let index_remove t id row =
  List.iter
    (fun ix ->
      ix.version <- ix.version + 1;
      bucket_remove ix (key_of row.(ix.col)) id)
    t.indexes

let touch t = t.stats.modtime <- t.clock ()

let note_col_max t row =
  Array.iteri
    (fun i v ->
      match v with
      | Value.Int n -> if n > t.col_max.(i) then t.col_max.(i) <- n
      | _ -> ())
    row

let note_change t id =
  t.chlog.(t.chlog_seq land (chlog_cap - 1)) <- id;
  t.chlog_seq <- t.chlog_seq + 1

let ensure_capacity t =
  let cap = Array.length t.rows in
  if t.next_id >= cap then begin
    let bigger = Array.make (max 64 (2 * cap)) None in
    Array.blit t.rows 0 bigger 0 cap;
    t.rows <- bigger
  end

let insert t row =
  Schema.check_tuple t.schema row;
  (* the stored copy is hash-consed: repeated atoms (logins, machine
     names, types, statuses) share one heap string across all rows and
     tables, which is what lets the 64x/1M campuses fit in memory *)
  let row = Intern.row row in
  let id = t.next_id in
  t.next_id <- id + 1;
  ensure_capacity t;
  t.rows.(id) <- Some row;
  t.live <- t.live + 1;
  index_add t id row;
  note_col_max t row;
  note_change t id;
  t.stats.appends <- t.stats.appends + 1;
  touch t;
  id

(* ------------------------------------------------------------------ *)
(* Compiled plans.

   A shape compiles against this table into (a) an eval closure over
   resolved column offsets — no per-row [Schema.index_of] — and (b) an
   access path chosen once from the shape.  Every path is a superset
   pre-filter: the full predicate is still evaluated on each candidate
   row, so a plan is sound even when a probe crosses types (Bool true
   and Int 1 share the bucket key "1").  Probing buckets by rendered
   key is justified by [Value.equal a b] implying
   [Value.to_string a = Value.to_string b]. *)

let compile_eval t shape =
  let getter c =
    match Schema.index_of t.schema c with
    | i -> fun (row : Value.t array) -> row.(i)
    | exception Not_found ->
        (* defer to row-eval time: [Pred.eval] only raises when a row is
           actually tested, and plans must agree with it exactly *)
        fun _ -> raise Not_found
  in
  let rec go = function
    | Pred.S_true -> fun _ _ -> true
    | Pred.S_eq (c, s) ->
        let g = getter c in
        fun p row -> Value.equal (g row) p.(s)
    | Pred.S_glob (c, pat) ->
        let g = getter c in
        fun _ row -> Glob.matches ~pattern:pat (Value.to_string (g row))
    | Pred.S_glob_fold (c, pat) ->
        let g = getter c in
        fun _ row ->
          Glob.matches ~case_fold:true ~pattern:pat (Value.to_string (g row))
    | Pred.S_cmp (op, c, s) -> (
        let g = getter c in
        match op with
        | Pred.Clt -> fun p row -> Value.compare (g row) p.(s) < 0
        | Pred.Cle -> fun p row -> Value.compare (g row) p.(s) <= 0
        | Pred.Cgt -> fun p row -> Value.compare (g row) p.(s) > 0
        | Pred.Cge -> fun p row -> Value.compare (g row) p.(s) >= 0)
    | Pred.S_and (a, b) ->
        let fa = go a and fb = go b in
        fun p row -> fa p row && fb p row
    | Pred.S_or (a, b) ->
        let fa = go a and fb = go b in
        fun p row -> fa p row || fb p row
    | Pred.S_not a ->
        let fa = go a in
        fun p row -> not (fa p row)
  in
  go shape

let find_index t c =
  match Schema.index_of t.schema c with
  | exception Not_found -> None
  | i -> List.find_opt (fun ix -> ix.col = i) t.indexes

let rec conjuncts = function
  | Pred.S_and (a, b) -> conjuncts a @ conjuncts b
  | s -> [ s ]

(* An atom the hash (or fold) buckets can serve directly. *)
let atom_candidate t = function
  | Pred.S_eq (c, slot) ->
      Option.map (fun ix -> C_slot (ix, slot)) (find_index t c)
  | Pred.S_glob (c, lit) when not (Glob.is_pattern lit) ->
      (* non-pattern glob is exact match on the rendered value *)
      Option.map (fun ix -> C_key (ix, lit)) (find_index t c)
  | Pred.S_glob_fold (c, lit) when not (Glob.is_pattern lit) ->
      Option.map
        (fun ix -> C_fold (ix, String.lowercase_ascii lit))
        (find_index t c)
  | _ -> None

(* An Or-tree whose every leaf is probeable: union of buckets. *)
let rec union_candidate t = function
  | Pred.S_or (a, b) -> (
      match (union_candidate t a, union_candidate t b) with
      | Some xs, Some ys -> Some (xs @ ys)
      | _ -> None)
  | atom -> Option.map (fun c -> [ c ]) (atom_candidate t atom)

let glob_prefix pat =
  let n = String.length pat in
  let rec wild i = if i >= n then n
    else match pat.[i] with '*' | '?' -> i | _ -> wild (i + 1)
  in
  String.sub pat 0 (wild 0)

(* Smallest string greater than every string starting with [prefix]:
   increment the last non-0xff byte, dropping the tail. *)
let prefix_successor prefix =
  let rec go i =
    if i < 0 then None
    else
      let c = Char.code prefix.[i] in
      if c < 0xff then
        Some (String.sub prefix 0 i ^ String.make 1 (Char.chr (c + 1)))
      else go (i - 1)
  in
  go (String.length prefix - 1)

let choose_path t shape =
  let cs = conjuncts shape in
  let probes =
    List.filter_map
      (fun s ->
        match atom_candidate t s with
        | Some c -> Some c
        | None -> (
            match s with
            | Pred.S_or _ ->
                Option.map (fun l -> C_union l) (union_candidate t s)
            | _ -> None))
      cs
  in
  if probes <> [] then P_probe probes
  else
    let cmps =
      List.filter_map
        (function
          | Pred.S_cmp (op, c, slot) ->
              Option.map (fun ix -> (ix, (op, slot))) (find_index t c)
          | _ -> None)
        cs
    in
    match cmps with
    | (ix0, _) :: _ ->
        (* all comparisons on the first indexed comparison column; the
           rest stay in the residual predicate *)
        let mine =
          List.filter_map
            (fun (ix, os) -> if ix == ix0 then Some os else None)
            cmps
        in
        P_range (ix0, mine)
    | [] ->
        let rec prefix_path = function
          | [] -> P_scan
          | Pred.S_glob (c, pat) :: rest when Glob.is_pattern pat -> (
              match find_index t c with
              (* glob compares rendered strings, which only agree with
                 [Value.compare] order on string columns *)
              | Some ix when ix.ctype = Value.TStr ->
                  let p = glob_prefix pat in
                  if p = "" then prefix_path rest
                  else P_prefix (ix, p, prefix_successor p)
              | _ -> prefix_path rest)
          | _ :: rest -> prefix_path rest
        in
        prefix_path cs

let compile t shape =
  { ceval = compile_eval t shape; cpath = choose_path t shape }

(* The plan cache.  Moira's fixed catalogue of named queries gives each
   handle one shape whatever its arguments, so every table converges on
   a small set of plans and a select costs a shape split, one probe of
   this table's cache, and the plan body.  Plans stay valid for the
   table's whole lifetime (schemas are immutable, the index structures
   they capture are updated in place, and the ordered/folded views are
   rebuilt off the index versions), so no write or [clear] touches the
   cache.  Glob patterns stay literal in a shape, so client-supplied
   patterns make new entries: the cache is bounded and resets wholesale
   when full. *)

let plan_hits = Obs.Counter.make Obs.default "plan.cache.hits"
let plan_misses = Obs.Counter.make Obs.default "plan.cache.misses"
let plan_cap = 256

let prepare t shape =
  match Hashtbl.find_opt t.plans shape with
  | Some c ->
      Obs.Counter.incr plan_hits;
      c
  | None ->
      Obs.Counter.incr plan_misses;
      let c = compile t shape in
      if Hashtbl.length t.plans >= plan_cap then Hashtbl.reset t.plans;
      Hashtbl.replace t.plans shape c;
      c

let reset_plans t = Hashtbl.reset t.plans

let probe ix k = Option.value (Hashtbl.find_opt ix.buckets k) ~default:empty_bucket

let probe_fold ix fk =
  Option.value (Hashtbl.find_opt (folded_view ix) fk) ~default:empty_bucket

let rec candidate_size params = function
  | C_slot (ix, slot) -> (probe ix (key_of params.(slot))).bsize
  | C_key (ix, k) -> (probe ix k).bsize
  | C_fold (ix, fk) -> (probe_fold ix fk).bsize
  | C_union l -> List.fold_left (fun a c -> a + candidate_size params c) 0 l

let rec candidate_ids params = function
  | C_slot (ix, slot) -> (probe ix (key_of params.(slot))).bset
  | C_key (ix, k) -> (probe ix k).bset
  | C_fold (ix, fk) -> (probe_fold ix fk).bset
  | C_union l ->
      (* union keeps ascending-rowid iteration and dedupes Or overlap *)
      List.fold_left
        (fun acc c -> Int_set.union acc (candidate_ids params c))
        Int_set.empty l

(* first i in [0, length a) with [pred (key a.(i))], or length a *)
let lower_bound a pred =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let k, _ = a.(mid) in
    if pred k then hi := mid else lo := mid + 1
  done;
  !lo

let union_slice a start stop =
  let acc = ref Int_set.empty in
  for i = start to stop - 1 do
    let _, b = a.(i) in
    acc := Int_set.union !acc b.bset
  done;
  !acc

let range_ids ix cmps params =
  (* tightest bounds: (value, strict) options folded over the cmps *)
  let tighten_lo lo v strict =
    match lo with
    | None -> Some (v, strict)
    | Some (u, s) ->
        let c = Value.compare v u in
        if c > 0 then Some (v, strict)
        else if c < 0 then lo
        else Some (u, s || strict)
  in
  let tighten_hi hi v strict =
    match hi with
    | None -> Some (v, strict)
    | Some (u, s) ->
        let c = Value.compare v u in
        if c < 0 then Some (v, strict)
        else if c > 0 then hi
        else Some (u, s || strict)
  in
  let lo, hi =
    List.fold_left
      (fun (lo, hi) (op, slot) ->
        let v = params.(slot) in
        match op with
        | Pred.Cgt -> (tighten_lo lo v true, hi)
        | Pred.Cge -> (tighten_lo lo v false, hi)
        | Pred.Clt -> (lo, tighten_hi hi v true)
        | Pred.Cle -> (lo, tighten_hi hi v false))
      (None, None) cmps
  in
  let a = sorted_view ix in
  let start =
    match lo with
    | None -> 0
    | Some (v, strict) ->
        lower_bound a (fun k ->
            let c = Value.compare k v in
            if strict then c > 0 else c >= 0)
  in
  let stop =
    match hi with
    | None -> Array.length a
    | Some (v, strict) ->
        lower_bound a (fun k ->
            let c = Value.compare k v in
            if strict then c >= 0 else c > 0)
  in
  union_slice a start stop

let prefix_ids ix lo hi =
  let a = sorted_view ix in
  let vlo = Value.Str lo in
  let start = lower_bound a (fun k -> Value.compare k vlo >= 0) in
  let stop =
    match hi with
    | None -> Array.length a
    | Some h ->
        let vh = Value.Str h in
        lower_bound a (fun k -> Value.compare k vh >= 0)
  in
  union_slice a start stop

let best_candidate params = function
  | [] -> assert false
  | [ c ] -> c
  | c :: cs ->
      let best = ref c and size = ref (candidate_size params c) in
      List.iter
        (fun c' ->
          let s = candidate_size params c' in
          if s < !size then begin best := c'; size := s end)
        cs;
      !best

(* Access-path counters on the global registry: how often each plan
   shape actually runs (module-level handles survive registry resets). *)
let path_scan = Obs.Counter.make Obs.default "plan.path.scan"
let path_probe = Obs.Counter.make Obs.default "plan.path.probe"
let path_range = Obs.Counter.make Obs.default "plan.path.range"
let path_prefix = Obs.Counter.make Obs.default "plan.path.prefix"

let run t c params =
  let eval = c.ceval in
  (match c.cpath with
  | P_scan -> Obs.Counter.incr path_scan
  | P_probe _ -> Obs.Counter.incr path_probe
  | P_range _ -> Obs.Counter.incr path_range
  | P_prefix _ -> Obs.Counter.incr path_prefix);
  let from_set set =
    Int_set.fold
      (fun id acc ->
        match row_of t id with
        | Some row when eval params row -> (id, row) :: acc
        | _ -> acc)
      set []
    |> List.rev
  in
  match c.cpath with
  | P_scan ->
      (* walk the array backwards so the consed list comes out in
         ascending rowid (insertion) order without a sort *)
      let acc = ref [] in
      for id = t.next_id - 1 downto 0 do
        match t.rows.(id) with
        | Some row when eval params row -> acc := (id, row) :: !acc
        | _ -> ()
      done;
      !acc
  | P_probe cands -> from_set (candidate_ids params (best_candidate params cands))
  | P_range (ix, cmps) -> from_set (range_ids ix cmps params)
  | P_prefix (ix, lo, hi) -> from_set (prefix_ids ix lo hi)

let explain t pred =
  let c = compile t (fst (Pred.split pred)) in
  let colname ix = (Schema.columns t.schema).(ix.col).Schema.cname in
  let rec cand = function
    | C_slot (ix, _) -> Printf.sprintf "eq(%s)" (colname ix)
    | C_key (ix, k) -> Printf.sprintf "key(%s=%S)" (colname ix) k
    | C_fold (ix, k) -> Printf.sprintf "fold(%s=%S)" (colname ix) k
    | C_union l -> "union(" ^ String.concat "|" (List.map cand l) ^ ")"
  in
  match c.cpath with
  | P_scan -> "scan"
  | P_probe cands -> "probe(" ^ String.concat "," (List.map cand cands) ^ ")"
  | P_range (ix, _) -> Printf.sprintf "range(%s)" (colname ix)
  | P_prefix (ix, p, _) -> Printf.sprintf "prefix(%s,%S)" (colname ix) p

let matching t pred =
  let shape, params = Pred.split pred in
  run t (prepare t shape) params

let select t pred =
  List.map (fun (id, row) -> (id, Array.copy row)) (matching t pred)

let select_one t pred =
  match matching t pred with
  | [ (id, row) ] -> Some (id, Array.copy row)
  | _ -> None

let count t pred = List.length (matching t pred)
let exists t pred = matching t pred <> []

let apply_update t hits f =
  List.iter
    (fun (id, row) ->
      let row' = f (Array.copy row) in
      Schema.check_tuple t.schema row';
      let row' = Intern.row row' in
      (* only indexes whose column actually changed are touched, so
         their versions stay put across unrelated-field updates *)
      List.iter
        (fun ix ->
          let k = key_of row.(ix.col) and k' = key_of row'.(ix.col) in
          if k <> k' then begin
            ix.version <- ix.version + 1;
            bucket_remove ix k id;
            bucket_add ix k' id
          end)
        t.indexes;
      t.rows.(id) <- Some row';
      note_col_max t row';
      note_change t id;
      t.stats.updates <- t.stats.updates + 1)
    hits;
  if hits <> [] then touch t;
  List.length hits

let update t pred f = apply_update t (matching t pred) f

let set_fields t pred fields =
  let positions =
    List.map (fun (c, v) -> (Schema.index_of t.schema c, v)) fields
  in
  update t pred (fun row ->
      List.iter (fun (i, v) -> row.(i) <- v) positions;
      row)

let apply_delete t hits =
  List.iter
    (fun (id, row) ->
      index_remove t id row;
      t.rows.(id) <- None;
      t.live <- t.live - 1;
      note_change t id;
      t.stats.deletes <- t.stats.deletes + 1)
    hits;
  if hits <> [] then begin
    touch t;
    t.stats.del_time <- t.clock ()
  end;
  List.length hits

let delete t pred = apply_delete t (matching t pred)

let get t id = Option.map Array.copy (row_of t id)
let cardinal t = t.live

(* Read-only traversal handing out the stored arrays directly — no
   per-row copy.  Callers must not mutate the rows or the table during
   the walk; the DCM generators' hot loops only project columns, and the
   copies [fold] makes were a measurable share of generation time. *)
let iter t f =
  for id = 0 to t.next_id - 1 do
    match t.rows.(id) with Some row -> f id row | None -> ()
  done

let fold t ~init ~f =
  let acc = ref init in
  for id = 0 to t.next_id - 1 do
    match t.rows.(id) with
    | Some row -> acc := f !acc id (Array.copy row)
    | None -> ()
  done;
  !acc

let stats t = t.stats

let col_upper_bound t cname = t.col_max.(Schema.index_of t.schema cname)

let change_cursor t = t.chlog_seq

let changes_since t ~cursor =
  if cursor > t.chlog_seq || t.chlog_seq - cursor > chlog_cap then None
  else begin
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    for s = cursor to t.chlog_seq - 1 do
      let id = t.chlog.(s land (chlog_cap - 1)) in
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        acc := id :: !acc
      end
    done;
    Some (List.sort compare !acc)
  end

let column_version t cname =
  match Schema.index_of t.schema cname with
  | exception Not_found -> None
  | c ->
      List.find_map
        (fun ix -> if ix.col = c then Some ix.version else None)
        t.indexes

let clear t =
  if t.live > 0 then t.stats.del_time <- t.clock ();
  t.stats.deletes <- t.stats.deletes + t.live;
  Array.fill t.rows 0 (Array.length t.rows) None;
  t.live <- 0;
  List.iter
    (fun ix ->
      ix.version <- ix.version + 1;
      Hashtbl.reset ix.buckets;
      (* wholesale reset bypasses [bucket_remove]'s delta tracking *)
      ix.dirty_overflow <- true;
      Hashtbl.reset ix.dirty)
    t.indexes;
  (* jump the sequence past a full ring so every outstanding cursor
     reads as overflowed: a wholesale clear has no per-row delta *)
  t.chlog_seq <- t.chlog_seq + chlog_cap + 1;
  touch t

let field t row col = row.(Schema.index_of t.schema col)
