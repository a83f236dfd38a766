(* Row-grain incremental rebuilds for keyed map files.

   The big HESIOD files (passwd.db, grplist.db, ...) are sorted runs of
   independent lines, each derived from one source-table row (plus
   auxiliary relations).  A full rebuild re-renders every line — O(users)
   per generation even when one user changed.  This module keeps the
   file as a sequence of sorted buckets with cached per-bucket docs and
   checksums, consumes the source table's change log, and re-renders
   only the lines of the rows that actually changed: the steady-state
   cost of a generation is O(changed rows + buckets), and files whose
   bytes didn't change keep their previous doc *physically*, so the
   push layer's member checksums and the spool's write-skip all hit.

   A line may also depend on an auxiliary relation that keeps its own
   delta (grplist.db on the membership closure): the spec then names the
   source rows that auxiliary delta touched, and they are re-rendered
   beside the rows from the change log.

   Correctness contract: the spliced file must be byte-identical to the
   full build.  Whenever the delta can't be applied faithfully — change
   log wrapped, auxiliary delta unknown, auxiliary fingerprint moved, a
   recorded line is missing — the engine falls back to the full build.
   A fallback is never wrong, only slower. *)

open Relation

type spec = {
  sk_table : string;
      (* the relation whose rows drive the lines; its change log is the
         delta source *)
  sk_files : string array;  (* output file names, in output order *)
  sk_full :
    Moira.Mdb.t ->
    emit:(rowid:int -> int -> string -> string -> unit) ->
    unit;
      (* bulk build: emit ~rowid file_idx key line for every line; may
         emit in any order (lines are sorted by key here) *)
  sk_row : Moira.Mdb.t -> rowid:int -> (int * string * string) list;
      (* the (file_idx, key, line) lines one row contributes right now
         ([] for deleted/filtered rows), byte-identical to what
         [sk_full] would emit for it, in the same relative order *)
  sk_deps : Moira.Mdb.t -> string;
      (* fingerprint of every input OTHER than the source table's own
         rows and [sk_aux] (auxiliary tables, memo versions); a change
         forces a full rebuild *)
  sk_aux : aux option;
}

and aux = {
  ax_cursor : Moira.Mdb.t -> int;  (* the auxiliary delta's position now *)
  ax_rows : Moira.Mdb.t -> cursor:int -> int list option;
      (* source rowids whose lines the auxiliary changes since [cursor]
         may have moved; None when unknown *)
}

exception Fallback

(* ~2k lines per bucket keeps a bucket's rendered bytes within one Sink
   chunk at typical line widths, so an unchanged bucket is one shared
   chunk the patch trims skip in O(1). *)
let bucket_target = 2048

type bucket = {
  mutable entries : (string * string) array;  (* (key, line), sorted *)
  mutable bdoc : Sink.doc;  (* rendered lines; checksum-memoized *)
  mutable dirty : bool;
}

type file_state = {
  mutable fbuckets : bucket array;  (* global (key, line) order *)
  mutable fdoc : Sink.doc;  (* concat of bucket docs, reused when clean *)
}

type state = {
  spec : spec;
  table_uid : int;
  mutable cursor : int;  (* change-log position already folded in *)
  mutable aux_cursor : int;  (* auxiliary delta position folded in *)
  mutable deps_fp : string;
  by_row : (int, (int * string * string) list) Hashtbl.t;
      (* what each source row currently contributes *)
  files : file_state array;
}

type Gen.pstate += Keyed_state of state

let c_full = Obs.Counter.make Obs.default "dcm.keyed.full"
let c_splice = Obs.Counter.make Obs.default "dcm.keyed.splice"
let c_fallback = Obs.Counter.make Obs.default "dcm.keyed.fallback"

let cmp_entry (k1, l1) (k2, l2) =
  match String.compare k1 k2 with 0 -> String.compare l1 l2 | c -> c

let bucket_doc entries =
  let b = Buffer.create 4096 in
  Array.iter (fun (_, line) -> Buffer.add_string b line) entries;
  Sink.of_string (Buffer.contents b)

let fresh_bucket entries = { entries; bdoc = bucket_doc entries; dirty = false }

(* ---- bucket search and edits ------------------------------------- *)

(* Binary search within one bucket: leftmost insertion point for [e]. *)
let insertion_point entries e =
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp_entry entries.(mid) e < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* The bucket a pair belongs to: the first non-empty bucket whose last
   entry is >= the pair (buckets hold disjoint ascending ranges). *)
let locate fs e =
  let n = Array.length fs.fbuckets in
  let rec go i =
    if i >= n then None
    else
      let b = fs.fbuckets.(i) in
      let len = Array.length b.entries in
      if len = 0 then go (i + 1)
      else if cmp_entry b.entries.(len - 1) e >= 0 then Some i
      else go (i + 1)
  in
  go 0

let array_remove a i =
  let n = Array.length a in
  Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (n - i - 1))

let array_insert a i e =
  let n = Array.length a in
  Array.append (Array.sub a 0 i) (Array.append [| e |] (Array.sub a i (n - i)))

let remove_entry fs key line =
  let e = (key, line) in
  match locate fs e with
  | None -> raise Fallback
  | Some i ->
      let b = fs.fbuckets.(i) in
      let j = insertion_point b.entries e in
      if j >= Array.length b.entries || cmp_entry b.entries.(j) e <> 0 then
        raise Fallback;
      b.entries <- array_remove b.entries j;
      b.dirty <- true

let insert_entry fs key line =
  let e = (key, line) in
  match locate fs e with
  | Some i ->
      let b = fs.fbuckets.(i) in
      b.entries <- array_insert b.entries (insertion_point b.entries e) e;
      b.dirty <- true
  | None ->
      (* past every existing entry: append to the last non-empty bucket,
         or start the first one *)
      let rec last i = if i < 0 then None
        else if Array.length fs.fbuckets.(i).entries > 0 then Some i
        else last (i - 1)
      in
      (match last (Array.length fs.fbuckets - 1) with
      | Some i ->
          let b = fs.fbuckets.(i) in
          b.entries <- Array.append b.entries [| e |];
          b.dirty <- true
      | None ->
          fs.fbuckets <- [| { entries = [| e |];
                              bdoc = Sink.empty;
                              dirty = true } |])

(* ---- doc refresh -------------------------------------------------- *)

let split_chunks entries =
  let n = Array.length entries in
  let parts = (n + bucket_target - 1) / bucket_target in
  List.init parts (fun i ->
      let lo = i * bucket_target in
      fresh_bucket (Array.sub entries lo (min bucket_target (n - lo))))

(* Rebuild the docs of dirty buckets (dropping empties, splitting
   oversized ones) and re-derive the file doc.  The file checksum folds
   the buckets' memoized checksums — O(buckets), not O(bytes). *)
let refresh_file fs =
  let out = ref [] in
  Array.iter
    (fun b ->
      if Array.length b.entries = 0 then ()
      else if b.dirty then
        if Array.length b.entries > 2 * bucket_target then
          List.iter (fun nb -> out := nb :: !out) (split_chunks b.entries)
        else begin
          b.bdoc <- bucket_doc b.entries;
          b.dirty <- false;
          out := b :: !out
        end
      else out := b :: !out)
    fs.fbuckets;
  fs.fbuckets <- Array.of_list (List.rev !out);
  let docs = Array.to_list (Array.map (fun b -> b.bdoc) fs.fbuckets) in
  let d = Sink.concat docs in
  let st = Checksum.stream_start () in
  List.iter (Checksum.stream_absorb_doc st) docs;
  Sink.set_checksum_memo d (Checksum.stream_value st);
  fs.fdoc <- d

(* ---- full build --------------------------------------------------- *)

let full_build spec mdb tbl =
  Obs.Counter.incr c_full;
  let cursor = Table.change_cursor tbl in
  let deps_fp = spec.sk_deps mdb in
  let aux_cursor =
    match spec.sk_aux with Some ax -> ax.ax_cursor mdb | None -> 0
  in
  let nf = Array.length spec.sk_files in
  let per_file = Array.make nf [] in
  let by_row = Hashtbl.create 4096 in
  spec.sk_full mdb ~emit:(fun ~rowid fi key line ->
      per_file.(fi) <- (key, line) :: per_file.(fi);
      Hashtbl.replace by_row rowid
        ((fi, key, line)
        :: Option.value (Hashtbl.find_opt by_row rowid) ~default:[]));
  (* normalize each row's contribution into emission order, the order
     [sk_row] reproduces, so the splice diff compares like with like *)
  let rows = Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) by_row [] in
  List.iter (fun (k, v) -> Hashtbl.replace by_row k v) rows;
  let files =
    Array.map
      (fun entries ->
        let a = Array.of_list (List.sort cmp_entry entries) in
        let fs =
          { fbuckets = Array.of_list (split_chunks a); fdoc = Sink.empty }
        in
        refresh_file fs;
        fs)
      per_file
  in
  { spec; table_uid = Table.uid tbl; cursor; aux_cursor; deps_fp; by_row;
    files }

(* ---- splice ------------------------------------------------------- *)

let splice st mdb tbl =
  let fp = st.spec.sk_deps mdb in
  if fp <> st.deps_fp then raise Fallback;
  let aux_rows =
    match st.spec.sk_aux with
    | None -> Some []
    | Some ax -> ax.ax_rows mdb ~cursor:st.aux_cursor
  in
  match (Table.changes_since tbl ~cursor:st.cursor, aux_rows) with
  | None, _ | _, None -> raise Fallback
  | Some rowids, Some extra ->
      let rowids = List.sort_uniq Int.compare (List.rev_append extra rowids) in
      let dirty = Array.make (Array.length st.files) false in
      List.iter
        (fun rowid ->
          let old =
            Option.value (Hashtbl.find_opt st.by_row rowid) ~default:[]
          in
          let neu = st.spec.sk_row mdb ~rowid in
          if old <> neu then begin
            List.iter
              (fun (fi, k, l) ->
                remove_entry st.files.(fi) k l;
                dirty.(fi) <- true)
              old;
            List.iter
              (fun (fi, k, l) ->
                insert_entry st.files.(fi) k l;
                dirty.(fi) <- true)
              neu;
            if neu = [] then Hashtbl.remove st.by_row rowid
            else Hashtbl.replace st.by_row rowid neu
          end)
        rowids;
      st.cursor <- Table.change_cursor tbl;
      Option.iter (fun ax -> st.aux_cursor <- ax.ax_cursor mdb) st.spec.sk_aux;
      Array.iteri (fun i d -> if d then refresh_file st.files.(i)) dirty

(* ---- entry point -------------------------------------------------- *)

let output_of st =
  {
    Gen.common =
      Array.to_list
        (Array.mapi (fun i fs -> (st.spec.sk_files.(i), fs.fdoc)) st.files);
    per_host = [];
  }

let build spec glue prev =
  let mdb = Moira.Glue.mdb glue in
  let tbl = Moira.Mdb.table mdb spec.sk_table in
  let st =
    match prev with
    | Some (Keyed_state st)
      when st.table_uid = Table.uid tbl && st.spec == spec -> (
        try
          splice st mdb tbl;
          Obs.Counter.incr c_splice;
          st
        with Fallback ->
          Obs.Counter.incr c_fallback;
          full_build spec mdb tbl)
    | _ -> full_build spec mdb tbl
  in
  (output_of st, Keyed_state st)

let incr spec = fun glue prev -> build spec glue prev
