(* One-pass membership closure over the [members] relation.

   The naive ACL walks ([Acl.containing_lists], [Acl.expand_users]) issue
   one select per list visited, which the DCM generators then repeat once
   per user — O(users x lists x selects) at paper scale.  This module
   folds over [members] once, condenses the list-membership graph into
   strongly connected components (self-referential ACLs are explicitly
   allowed, section 5.5), and computes, per component:

     - the transitive set of USER members reachable below it, and
     - the set of lists strictly above it.

   Both directions then answer any number of queries in O(answer size).
   The result is memoized per members table and kept current by the
   table's change log: edits of non-LIST members are applied as deltas,
   and only a LIST-member edit (which can reshape the component graph)
   or a wrapped log pays for a full rebuild. *)

open Relation
module Int_set = Set.Make (Int)

type t = {
  direct : (int, (string * int) list) Hashtbl.t;
      (* list_id -> direct members in rowid (insertion) order *)
  parents : (string * int, int list) Hashtbl.t;
      (* (member_type, member_id) -> lists holding it directly *)
  scc_of : (int, int) Hashtbl.t;  (* list_id -> component id *)
  mutable ncomp : int;  (* components in use; the arrays may be longer *)
  mutable lists_set : Int_set.t array;  (* component -> its list ids *)
  mutable cyclic : bool array;
      (* component of size > 1, or with a self-loop *)
  mutable users_below : Int_set.t array;
      (* component -> reachable USER ids *)
  mutable users_arr : int array option array;
      (* component -> users_below as a sorted array, filled on first use;
         the closure itself is memoized, so the flattening amortizes over
         every generation it serves *)
  mutable above : Int_set.t array;
      (* component -> lists strictly containing it *)
}

let find_all tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[]
let push tbl k v = Hashtbl.replace tbl k (v :: find_all tbl k)

let c_full = Obs.Counter.make Obs.default "closure.build.full"
let c_delta = Obs.Counter.make Obs.default "closure.build.delta"

(* [note rowid list_id member_type member_id] sees every members row;
   the memo uses it to record what each row held. *)
let build_noting mdb ~note =
  let members = Mdb.table mdb "members" in
  let n_guess = max 16 (Table.cardinal members / 4) in
  let direct = Hashtbl.create n_guess in
  let parents = Hashtbl.create n_guess in
  let children = Hashtbl.create n_guess in  (* list_id -> LIST member ids *)
  let users = Hashtbl.create n_guess in  (* list_id -> direct USER ids *)
  let nodes = Hashtbl.create n_guess in
  Table.iter members (fun rowid row ->
      let lid = Value.int row.(0) in
      let mtype = Value.str row.(1) in
      let mid = Value.int row.(2) in
      note rowid lid mtype mid;
      Hashtbl.replace nodes lid ();
      push direct lid (mtype, mid);
      push parents (mtype, mid) lid;
      match mtype with
      | "LIST" ->
          Hashtbl.replace nodes mid ();
          push children lid mid
      | "USER" -> push users lid mid
      | _ -> ());
  (* rowid order for direct members (fold visits ascending, push reverses) *)
  Hashtbl.iter (fun k v -> Hashtbl.replace direct k (List.rev v))
    (Hashtbl.copy direct);
  (* Tarjan's SCC, iterative.  Components are numbered in emission order,
     which is reverse-topological: every component's id is greater than
     the ids of all components it can reach downward. *)
  let index = Hashtbl.create n_guess in
  let lowlink = Hashtbl.create n_guess in
  let on_stack = Hashtbl.create n_guess in
  let stack = ref [] in
  let counter = ref 0 in
  let scc_of = Hashtbl.create n_guess in
  let comps = ref [] in  (* (id, members) in reverse emission order *)
  let next_comp = ref 0 in
  let idx v = Hashtbl.find index v in
  let ll v = Hashtbl.find lowlink v in
  let start v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ()
  in
  let emit root =
    let comp = !next_comp in
    incr next_comp;
    let rec pop acc =
      match !stack with
      | [] -> acc
      | v :: rest ->
          stack := rest;
          Hashtbl.remove on_stack v;
          Hashtbl.replace scc_of v comp;
          if v = root then v :: acc else pop (v :: acc)
    in
    comps := (comp, pop []) :: !comps
  in
  let visit root =
    if not (Hashtbl.mem index root) then begin
      start root;
      let call = ref [ (root, ref (find_all children root)) ] in
      while !call <> [] do
        match !call with
        | [] -> ()
        | (v, rest) :: tail -> (
            match !rest with
            | w :: more ->
                rest := more;
                if not (Hashtbl.mem index w) then begin
                  start w;
                  call := (w, ref (find_all children w)) :: !call
                end
                else if Hashtbl.mem on_stack w then
                  Hashtbl.replace lowlink v (min (ll v) (idx w))
            | [] ->
                if ll v = idx v then emit v;
                call := tail;
                (match tail with
                | (p, _) :: _ -> Hashtbl.replace lowlink p (min (ll p) (ll v))
                | [] -> ()))
      done
    end
  in
  Hashtbl.iter (fun v () -> visit v) nodes;
  let n = !next_comp in
  let lists_set = Array.make n Int_set.empty in
  List.iter
    (fun (c, ls) -> lists_set.(c) <- Int_set.of_list ls)
    !comps;
  (* condensation edges + cycle detection *)
  let cyclic = Array.make n false in
  let comp_children = Array.make n Int_set.empty in
  let comp_parents = Array.make n Int_set.empty in
  Hashtbl.iter
    (fun v () ->
      let cv = Hashtbl.find scc_of v in
      if Int_set.cardinal lists_set.(cv) > 1 then cyclic.(cv) <- true;
      List.iter
        (fun w ->
          let cw = Hashtbl.find scc_of w in
          if cv = cw then cyclic.(cv) <- true
          else begin
            comp_children.(cv) <- Int_set.add cw comp_children.(cv);
            comp_parents.(cw) <- Int_set.add cv comp_parents.(cw)
          end)
        (find_all children v))
    nodes;
  (* users below: children-first = ascending component id *)
  let users_below = Array.make n Int_set.empty in
  for c = 0 to n - 1 do
    let own =
      Int_set.fold
        (fun l acc ->
          List.fold_left (fun acc u -> Int_set.add u acc) acc
            (find_all users l))
        lists_set.(c) Int_set.empty
    in
    users_below.(c) <-
      Int_set.fold
        (fun child acc -> Int_set.union users_below.(child) acc)
        comp_children.(c) own
  done;
  (* lists strictly above: parents-first = descending component id *)
  let above = Array.make n Int_set.empty in
  for c = n - 1 downto 0 do
    above.(c) <-
      Int_set.fold
        (fun p acc -> Int_set.union lists_set.(p) (Int_set.union above.(p) acc))
        comp_parents.(c) Int_set.empty
  done;
  { direct; parents; scc_of; ncomp = n; lists_set; cyclic; users_below;
    users_arr = Array.make n None; above }

let build mdb = build_noting mdb ~note:(fun _ _ _ _ -> ())

let direct_members t ~list_id = find_all t.direct list_id

let user_id_set_of_list t ~list_id =
  match Hashtbl.find_opt t.scc_of list_id with
  | None -> Int_set.empty
  | Some c -> t.users_below.(c)

let user_ids_of_list t ~list_id =
  Int_set.elements (user_id_set_of_list t ~list_id)

let users_array t c =
  match t.users_arr.(c) with
  | Some a -> a
  | None ->
      let s = t.users_below.(c) in
      let a = Array.make (Int_set.cardinal s) 0 in
      let i = ref 0 in
      Int_set.iter (fun u -> a.(!i) <- u; incr i) s;
      t.users_arr.(c) <- Some a;
      a

let iter_users t ~list_id f =
  match Hashtbl.find_opt t.scc_of list_id with
  | None -> ()
  | Some c -> Array.iter f (users_array t c)

(* Every list containing [list_id], directly or transitively: everything
   strictly above its component, plus the component's own lists when it is
   cyclic (each then contains the others — and itself — through the cycle). *)
let containers_of_list t list_id =
  match Hashtbl.find_opt t.scc_of list_id with
  | None -> Int_set.empty
  | Some c ->
      if t.cyclic.(c) then Int_set.union t.lists_set.(c) t.above.(c)
      else t.above.(c)

let containing_set t ~mtype ~mid =
  if mtype = "LIST" then containers_of_list t mid
  else
    List.fold_left
      (fun acc p -> Int_set.add p (Int_set.union (containers_of_list t p) acc))
      Int_set.empty
      (find_all t.parents (mtype, mid))

let containing_lists t ~mtype ~mid =
  Int_set.elements (containing_set t ~mtype ~mid)

(* ---- delta maintenance ---------------------------------------------- *)

(* What each members row held when the closure last saw it, by rowid
   (rowids are never reused), so a deleted row's edge can still be
   undone after the table has forgotten it. *)
type shadow = (int, int * string * int) Hashtbl.t

(* A delta this module cannot apply in place: the caller rebuilds. *)
exception Full

(* A list that had no edge at all becomes a fresh singleton component.
   It has no LIST edges (those force a full build), so any id keeps the
   reverse-topological numbering. *)
let component t lid =
  match Hashtbl.find_opt t.scc_of lid with
  | Some c -> c
  | None ->
      let c = t.ncomp in
      if c = Array.length t.lists_set then begin
        let grow a x = Array.append a (Array.make (max 16 c) x) in
        t.lists_set <- grow t.lists_set Int_set.empty;
        t.cyclic <- grow t.cyclic false;
        t.users_below <- grow t.users_below Int_set.empty;
        t.users_arr <- grow t.users_arr None;
        t.above <- grow t.above Int_set.empty
      end;
      t.ncomp <- c + 1;
      t.lists_set.(c) <- Int_set.singleton lid;
      Hashtbl.replace t.scc_of lid c;
      c

(* [c] and every component above it, children first (ascending id). *)
let affected t c =
  Int_set.fold
    (fun l acc -> Int_set.add (Hashtbl.find t.scc_of l) acc)
    t.above.(c) (Int_set.singleton c)

let set_users t c s =
  if s != t.users_below.(c) then begin
    t.users_below.(c) <- s;
    t.users_arr.(c) <- None
  end

let add_edge t lid mtype mid =
  Hashtbl.replace t.direct lid (find_all t.direct lid @ [ (mtype, mid) ]);
  push t.parents (mtype, mid) lid;
  if mtype = "USER" then
    Int_set.iter
      (fun c -> set_users t c (Int_set.add mid t.users_below.(c)))
      (affected t (component t lid))

let rec remove_one x = function
  | [] -> raise Full
  | y :: rest -> if y = x then rest else y :: remove_one x rest

(* Delete-and-rederive (Gupta, Mumick & Subrahmanian, SIGMOD 1993) for
   one USER: walking up from the edited list, the user stays below a
   component only if one of its lists still holds the user directly or a
   child component (already settled: children have smaller ids) still
   reaches it. *)
let remove_edge t lid mtype mid =
  let e = (mtype, mid) in
  let ds = find_all t.direct lid in
  (* with duplicate rows, which copy goes decides the order of the rest *)
  if List.length (List.filter (( = ) e) ds) <> 1 then raise Full;
  (match remove_one e ds with
  | [] -> Hashtbl.remove t.direct lid
  | rest -> Hashtbl.replace t.direct lid rest);
  (match remove_one lid (find_all t.parents e) with
  | [] -> Hashtbl.remove t.parents e
  | rest -> Hashtbl.replace t.parents e rest);
  if mtype = "USER" then begin
    let holders = find_all t.parents e in
    Int_set.iter
      (fun c ->
        let direct_hold =
          List.exists (fun p -> Hashtbl.find t.scc_of p = c) holders
        in
        let child_hold () =
          Int_set.exists
            (fun l ->
              List.exists
                (function
                  | "LIST", m ->
                      let cm = Hashtbl.find t.scc_of m in
                      cm <> c && Int_set.mem mid t.users_below.(cm)
                  | _ -> false)
                (find_all t.direct l))
            t.lists_set.(c)
        in
        if not (direct_hold || child_hold ()) then
          set_users t c (Int_set.remove mid t.users_below.(c)))
      (affected t (Hashtbl.find t.scc_of lid))
  end

(* Apply the touched members rows to [t] and [sh]; returns the USER ids
   whose containing lists may have changed.  Raises [Full] when a row is
   a LIST member, was rewritten in place or has a duplicate; [t] may
   then be half-updated, and the caller discards it for a full build. *)
let apply_delta t sh members rowids =
  let ops =
    List.filter_map
      (fun id ->
        let now =
          Option.map
            (fun row -> (Value.int row.(0), Value.str row.(1), Value.int row.(2)))
            (Table.get members id)
        in
        match (Hashtbl.find_opt sh id, now) with
        | None, None -> None
        | Some o, Some n -> if o = n then None else raise Full
        | Some (_, "LIST", _), None | None, Some (_, "LIST", _) -> raise Full
        | Some o, None -> Some (id, false, o)
        | None, Some n -> Some (id, true, n))
      rowids
  in
  List.fold_left
    (fun users (id, add, (lid, mtype, mid)) ->
      if add then begin
        (* a new rowid exceeds every recorded one: it goes last *)
        add_edge t lid mtype mid;
        Hashtbl.replace sh id (lid, mtype, mid)
      end
      else begin
        remove_edge t lid mtype mid;
        Hashtbl.remove sh id
      end;
      if mtype = "USER" then mid :: users else users)
    [] ops

(* ---- memo -------------------------------------------------------- *)

(* One closure per members table, current as of change-log position
   [at].  [log] keeps, newest first, the users each delta touched, so a
   consumer holding an older position can ask which users to revisit;
   it is complete back to [log_from]. *)
type entry = {
  closure : t;
  shadow : shadow;
  mutable at : int;
  mutable log_from : int;
  mutable log : (int * int list) list;  (* (position after, users) *)
  mutable log_users : int;
}

let memo : (int, entry) Hashtbl.t = Hashtbl.create 8
let memo_cap = 32
let log_cap = 8192

let full_entry mdb members =
  let shadow = Hashtbl.create (max 16 (Table.cardinal members)) in
  let closure =
    build_noting mdb ~note:(fun id lid mtype mid ->
        Hashtbl.add shadow id (lid, mtype, mid))
  in
  Obs.Counter.incr c_full;
  let at = Table.change_cursor members in
  { closure; shadow; at; log_from = at; log = []; log_users = 0 }

let refresh e members =
  let now = Table.change_cursor members in
  if now <> e.at then
    match Table.changes_since members ~cursor:e.at with
    | None -> raise Full
    | Some rowids ->
        let users = apply_delta e.closure e.shadow members rowids in
        Obs.Counter.incr c_delta;
        e.at <- now;
        if users <> [] then e.log <- (now, users) :: e.log;
        e.log_users <- e.log_users + List.length users;
        if e.log_users > log_cap then begin
          (* too far behind to be worth replaying: older positions now
             read as unknown *)
          e.log <- [];
          e.log_users <- 0;
          e.log_from <- now
        end

let entry mdb =
  let members = Mdb.table mdb "members" in
  let uid = Table.uid members in
  match Hashtbl.find_opt memo uid with
  | Some e -> (
      try refresh e members; e
      with Full ->
        let fresh = full_entry mdb members in
        Hashtbl.replace memo uid fresh;
        fresh)
  | None ->
      if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
      let e = full_entry mdb members in
      Hashtbl.replace memo uid e;
      e

let get mdb = (entry mdb).closure

let change_cursor mdb = (entry mdb).at

let users_changed_since mdb ~cursor =
  let e = entry mdb in
  if cursor < e.log_from || cursor > e.at then None
  else
    Some
      (List.fold_left
         (fun acc (p, us) -> if p > cursor then List.rev_append us acc else acc)
         [] e.log
      |> List.sort_uniq Int.compare)
