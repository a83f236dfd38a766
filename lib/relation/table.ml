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
  buckets : (string, bucket) Hashtbl.t;
  mutable version : int;
      (* bumps on insert/delete and on updates that change this column's
         value — NOT on updates that leave it alone.  Generators key
         memoized projections on the versions of exactly the columns
         they read, so e.g. a shell edit leaves a login-sorted user
         projection warm. *)
}

(* Access paths of a compiled plan; see "Compiled plans" below. *)
type candidate =
  | C_slot of index * int  (* probe by the rendered slot value *)
  | C_union of candidate list  (* OR of probeable atoms *)

type path =
  | P_scan
  | P_probe of candidate list  (* And-reachable; runtime picks smallest *)

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
          buckets = Hashtbl.create 64;
          version = 0;
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

let bucket_add ix k id =
  let b = Option.value (Hashtbl.find_opt ix.buckets k) ~default:empty_bucket in
  let bset = Int_set.add id b.bset in
  (* stdlib sets return the argument physically when unchanged, so the
     tracked size cannot drift even on redundant adds *)
  if bset != b.bset then
    Hashtbl.replace ix.buckets k { bset; bsize = b.bsize + 1 }

let bucket_remove ix k id =
  match Hashtbl.find_opt ix.buckets k with
  | None -> ()
  | Some b ->
      let bset = Int_set.remove id b.bset in
      if bset != b.bset then
        if Int_set.is_empty bset then Hashtbl.remove ix.buckets k
        else Hashtbl.replace ix.buckets k { bset; bsize = b.bsize - 1 }

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
    | Pred.S_glob (c, s) ->
        let g = getter c in
        fun p row ->
          Glob.matches ~pattern:(Value.to_string p.(s)) (Value.to_string (g row))
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

(* An atom the hash buckets can serve directly. *)
let atom_candidate t = function
  | Pred.S_eq (c, slot) ->
      Option.map (fun ix -> C_slot (ix, slot)) (find_index t c)
  | _ -> None

(* An Or-tree whose every leaf is probeable: union of buckets. *)
let rec union_candidate t = function
  | Pred.S_or (a, b) -> (
      match (union_candidate t a, union_candidate t b) with
      | Some xs, Some ys -> Some (xs @ ys)
      | _ -> None)
  | atom -> Option.map (fun c -> [ c ]) (atom_candidate t atom)

let choose_path t shape =
  let probes =
    List.filter_map
      (function
        | Pred.S_or _ as s ->
            Option.map (fun l -> C_union l) (union_candidate t s)
        | s -> atom_candidate t s)
      (conjuncts shape)
  in
  if probes <> [] then P_probe probes else P_scan

let compile t shape =
  { ceval = compile_eval t shape; cpath = choose_path t shape }

(* The plan cache.  Moira's fixed catalogue of named queries gives each
   handle one shape whatever its arguments, so every table converges on
   a small set of plans and a select costs a shape split, one probe of
   this table's cache, and the plan body.  Plans stay valid for the
   table's whole lifetime (schemas are immutable and the index
   structures they capture are updated in place), so no write or [clear]
   touches the cache.  Glob patterns are parameters too, so the shapes a
   table sees, and its cache, are bounded by the code that builds
   predicates. *)

let plan_hits = Obs.Counter.make Obs.default "plan.cache.hits"
let plan_misses = Obs.Counter.make Obs.default "plan.cache.misses"

let prepare t shape =
  match Hashtbl.find_opt t.plans shape with
  | Some c ->
      Obs.Counter.incr plan_hits;
      c
  | None ->
      Obs.Counter.incr plan_misses;
      let c = compile t shape in
      Hashtbl.replace t.plans shape c;
      c

let reset_plans t = Hashtbl.reset t.plans

let probe ix k = Option.value (Hashtbl.find_opt ix.buckets k) ~default:empty_bucket

let rec candidate_size params = function
  | C_slot (ix, slot) -> (probe ix (key_of params.(slot))).bsize
  | C_union l -> List.fold_left (fun a c -> a + candidate_size params c) 0 l

let rec candidate_ids params = function
  | C_slot (ix, slot) -> (probe ix (key_of params.(slot))).bset
  | C_union l ->
      (* union keeps ascending-rowid iteration and dedupes Or overlap *)
      List.fold_left
        (fun acc c -> Int_set.union acc (candidate_ids params c))
        Int_set.empty l

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

let run t c params =
  let eval = c.ceval in
  (match c.cpath with
  | P_scan -> Obs.Counter.incr path_scan
  | P_probe _ -> Obs.Counter.incr path_probe);
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
  | P_probe cands ->
      Int_set.fold
        (fun id acc ->
          match row_of t id with
          | Some row when eval params row -> (id, row) :: acc
          | _ -> acc)
        (candidate_ids params (best_candidate params cands))
        []
      |> List.rev

let explain t pred =
  let c = compile t (fst (Pred.split pred)) in
  let colname ix = (Schema.columns t.schema).(ix.col).Schema.cname in
  let rec cand = function
    | C_slot (ix, _) -> Printf.sprintf "eq(%s)" (colname ix)
    | C_union l -> "union(" ^ String.concat "|" (List.map cand l) ^ ")"
  in
  match c.cpath with
  | P_scan -> "scan"
  | P_probe cands -> "probe(" ^ String.concat "," (List.map cand cands) ^ ")"

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
      Hashtbl.reset ix.buckets)
    t.indexes;
  (* jump the sequence past a full ring so every outstanding cursor
     reads as overflowed: a wholesale clear has no per-row delta *)
  t.chlog_seq <- t.chlog_seq + chlog_cap + 1;
  touch t

let field t row col = row.(Schema.index_of t.schema col)
