(* The static analysis engine, over the compiler's typed ASTs.

   It loads the [.cmt] files dune leaves next to the objects
   ([Cmt_format]), walks them with [Tast_iterator], and reduces every
   compilation unit to a table of per-definition facts: which names it
   references (resolved paths, so [module O = Obj] then [O.magic] is
   [Obj.magic]), which string constants it mentions, which effects it
   performs directly, which lock classes it acquires, and the rule
   sites one expression shows (a handler that discards its exception,
   a literal in a table or column position).  Every rule is a query
   over those facts, shared between the real tree ([Deep_moira]) and
   the test fixtures (which typecheck snippets in-process via
   [Typemod]).  Interfaces ([.cmti]) contribute their toplevel [val]s.

   Rule ids reported here:
   - per definition: [obj-magic], [swallow-exn], [lock-protect] (a
     [Lock.acquire] in a definition that never names [Fun.protect]),
     [schema-ref] (a table or column literal the schema does not
     know) and [printf-in-lib] (a stdout printer);
   - along the call graph: [deep-effect] (a transitive wall-clock /
     global-random / unordered-iteration reach, with the call chain),
     [lock-order] (an acquisition-order cycle or an acquire whose key
     the analysis cannot classify), [dead-export] (a library
     definition nothing outside the library reaches) and
     [internal-export] (an interface value no other unit names);
   - against the protocol document: [proto-exhaustive] (an opcode,
     verb or error code without both endpoints of a dispatch or its
     PROTOCOL.md row).
   Scoping and suppression are delegated to caller-supplied callbacks
   so [Deep_moira] can apply its file roots, the allow-comment scanner
   and the per-file allowlist. *)

type effect_ =
  | WallClock
  | GlobalRandom
  | UnorderedIter
  | Io
  | TakesLock of string

let effect_name = function
  | WallClock -> "wall-clock"
  | GlobalRandom -> "global-random"
  | UnorderedIter -> "unordered-iter"
  | Io -> "io"
  | TakesLock c -> "takes-lock:" ^ c

(* What one expression shows, for the per-definition rules. *)
type site =
  | Swallow  (* a handler whose pattern discards the exception *)
  | Table_lit of string  (* a literal in a table position *)
  | Column_lit of string  (* a literal in a column position *)

type fn = {
  fn_name : string;  (* fully qualified: "Dcm.Manager.host_phase" *)
  fn_unit : string;  (* enclosing unit, normalized: "Dcm.Manager" *)
  fn_file : string;
  fn_line : int;
  mutable fn_refs : (string * int) list;  (* referenced value, line *)
  mutable fn_strings : (string * int) list;  (* string constant, line *)
  mutable fn_direct : (effect_ * int) list;  (* direct effect, line *)
  mutable fn_acquires : (string * int) list;  (* lock class or "?", line *)
  mutable fn_code_idx : int option;  (* body is [code <int>] *)
  mutable fn_sites : (site * int) list;  (* rule site, line *)
}

type facts = (string, fn) Hashtbl.t

let create () : facts = Hashtbl.create 256

let add_fn (facts : facts) fn = Hashtbl.replace facts fn.fn_name fn

let make_fn ~name ~unit_name ~file ~line =
  {
    fn_name = name;
    fn_unit = unit_name;
    fn_file = file;
    fn_line = line;
    fn_refs = [];
    fn_strings = [];
    fn_direct = [];
    fn_acquires = [];
    fn_code_idx = None;
    fn_sites = [];
  }

(* ---------------- name normalization ---------------- *)

let replace_sub s ~sub ~by =
  let b = Buffer.create (String.length s) in
  let n = String.length sub in
  let rec go i =
    match Allow.find_sub ~start:i s sub with
    | None -> Buffer.add_substring b s i (String.length s - i)
    | Some j ->
        Buffer.add_substring b s i (j - i);
        Buffer.add_string b by;
        go (j + n)
  in
  go 0;
  Buffer.contents b

let strip_prefix p s =
  if String.starts_with ~prefix:p s then
    String.sub s (String.length p) (String.length s - String.length p)
  else s

(* A unit or referenced path as the analysis names things: the
   [Stdlib] prefix dropped, dune's unit mangling undone.
   "Dune__exe__Moira_cli" and "Dune__exe.Moira_cli" -> "Moira_cli";
   "Dcm__Manager" -> "Dcm.Manager"; a path through a library's alias
   module, "Lint__.Allow.rules" -> "Lint.Allow.rules". *)
let norm_path name =
  let name =
    strip_prefix "Dune__exe."
      (strip_prefix "Dune__exe__" (strip_prefix "Stdlib." name))
  in
  replace_sub (replace_sub name ~sub:"__." ~by:".") ~sub:"__" ~by:"."

let last_component n =
  match String.rindex_opt n '.' with
  | Some i -> String.sub n (i + 1) (String.length n - i - 1)
  | None -> n

let lowercase_contains hay needle =
  Allow.contains_sub (String.lowercase_ascii hay) needle

(* ---------------- direct-effect classification ---------------- *)

let wall_clock_names =
  [
    "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Gc.quick_stat"; "Gc.stat";
    "Gc.counters"; "Gc.allocated_bytes";
  ]

(* stdout printers, which [printf-in-lib] keeps out of lib/; stderr is
   left to com_err's reporting convention *)
let stdout_printers =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "print_float"; "print_bytes"; "Printf.printf";
    "Format.printf";
  ]

let io_sink_names =
  stdout_printers
  @ [
      "prerr_string"; "prerr_endline"; "prerr_newline"; "output_string";
      "output_char"; "output_bytes"; "Printf.eprintf"; "Printf.fprintf";
      "Format.eprintf"; "Format.fprintf";
    ]

let classify_ref n =
  if List.mem n wall_clock_names then Some WallClock
  (* [Random.State] threads an explicit seeded state, except the one
     constructor that seeds itself from the system *)
  else if
    String.starts_with ~prefix:"Random." n
    && ((not (String.starts_with ~prefix:"Random.State." n))
       || n = "Random.State.make_self_init")
  then Some GlobalRandom
  else if List.mem n io_sink_names || String.ends_with ~suffix:"Vfs.write" n
  then Some Io
  else None

let is_hashtbl_walk n = n = "Hashtbl.fold" || n = "Hashtbl.iter"

(* Lock keys are "<class>:<instance>"; ordering discipline is per class. *)
let key_class key =
  match String.index_opt key ':' with
  | Some i -> String.sub key 0 i
  | None -> key

(* ---------------- the typedtree walk ---------------- *)

open Typedtree

let line_of (e : expression) = e.exp_loc.Location.loc_start.Lexing.pos_lnum

(* Every string constant in a subtree with its line, in syntactic
   order.  Format literals decompose into CamlinternalFormat constants,
   but the leading literal chunk ("host:" of "host:%s/%s") still shows
   up first as a plain string constant, which is all the lock-key
   classifier needs. *)
let strings_in e =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_constant (Asttypes.Const_string (s, _, _)) ->
              acc := (s, line_of e) :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  List.rev !acc

let first_string_in e = Option.map fst (List.nth_opt (strings_in e) 0)

(* Does a lambda body accumulate order-sensitively (list cons or
   append, string append, buffer append)?  Iterating a hashtable with
   such a lambda and no sort in the same definition leaks hash order. *)
let order_sensitive_lambda e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_construct (_, cd, _) when cd.Types.cstr_name = "::" ->
              found := true
          | Texp_ident (p, _, _) -> (
              match norm_path (Path.name p) with
              | "^" | "@" | "List.append" | "List.rev_append"
              | "Buffer.add_string" | "Buffer.add_char" ->
                  found := true
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* [with _ ->] discards the exception, and so does [with _e ->]: the
   underscore declares the handler will not look at it. *)
let rec swallows (p : pattern) =
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_var (_, name) -> String.starts_with ~prefix:"_" name.Location.txt
  | Tpat_or (a, b, _) -> swallows a || swallows b
  | Tpat_alias (p, _, _) -> swallows p
  | _ -> false

let pat_line (p : _ general_pattern) =
  p.pat_loc.Location.loc_start.Lexing.pos_lnum

(* Whether a resolved name is one of [paths] or ends with one of them
   at a module boundary ("Moira.Mdb.table" is "Mdb.table"). *)
let names_one_of paths n =
  List.exists (fun p -> n = p || String.ends_with ~suffix:("." ^ p) n) paths

(* Schema positions of known calls.  Every unlabelled literal argument
   of a table function names a table.  The first group of column
   functions also takes a string value, so only their first unlabelled
   argument is a column; in the second no other argument is a string.
   [Gen.watch] takes a table and [~columns] of it. *)
let table_fns = [ "Mdb.table"; "Db.table" ]
let column_fns_first = [ "Pred.eq_str"; "Pred.name_match" ]

let column_fns_any =
  [ "Pred.eq_int"; "Pred.eq_bool"; "Table.field"; "Schema.index_of"; "seti";
    "setb"; "Gen_util.col" ]

let schema_sites n args =
  let literal = function
    | ( Asttypes.Nolabel,
        Some
          ({ exp_desc = Texp_constant (Asttypes.Const_string (s, _, _)); _ }
           as e) ) ->
        Some (s, line_of e)
    | _ -> None
  in
  let tables = List.map (fun (s, ln) -> (Table_lit s, ln))
  and columns = List.map (fun (s, ln) -> (Column_lit s, ln)) in
  let unlabelled = List.filter_map literal args in
  if names_one_of table_fns n then tables unlabelled
  else if names_one_of [ "Gen.watch" ] n then
    tables unlabelled
    @ List.concat_map
        (function
          | ( (Asttypes.Labelled "columns" | Asttypes.Optional "columns"),
              Some a ) ->
              columns (strings_in a)
          | _ -> [])
        args
  else if names_one_of column_fns_first n then
    (* the first unlabelled argument, whether a literal or not *)
    match
      List.find_opt (fun (l, a) -> l = Asttypes.Nolabel && a <> None) args
    with
    | Some arg -> columns (Option.to_list (literal arg))
    | None -> []
  else if names_one_of column_fns_any n then columns unlabelled
  else []

(* Walk one toplevel binding's body, filling [fn]'s fact lists.
   [name_of] names a referenced path as the facts do, or gives [None]
   for a local variable. *)
let walk_binding ~name_of fn body =
  (* local [let k = "service:" ^ x] string bindings, for key classing *)
  let locals : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let walk_candidates = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      (* string constants in match arms count as uses too: a protocol
         verb's handler arm is a pattern, not an expression *)
      pat =
        (fun (type k) it (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_constant (Asttypes.Const_string (s, _, _)) ->
              fn.fn_strings <-
                (s, p.pat_loc.Location.loc_start.Lexing.pos_lnum)
                :: fn.fn_strings
          | _ -> ());
          Tast_iterator.default_iterator.pat it p);
      expr =
        (fun it e ->
          let ln = line_of e in
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> (
              match name_of p with
              | Some n -> (
                  fn.fn_refs <- (n, ln) :: fn.fn_refs;
                  match classify_ref n with
                  | Some eff -> fn.fn_direct <- (eff, ln) :: fn.fn_direct
                  | None -> ())
              | None -> ())
          | Texp_constant (Asttypes.Const_string (s, _, _)) ->
              fn.fn_strings <- (s, ln) :: fn.fn_strings
          (* [let*]/[let+]: the operator is a use of its definition *)
          | Texp_letop { let_; ands; _ } ->
              List.iter
                (fun bop ->
                  match name_of bop.bop_op_path with
                  | Some n -> fn.fn_refs <- (n, ln) :: fn.fn_refs
                  | None -> ())
                (let_ :: ands)
          | Texp_let (_, vbs, _) ->
              List.iter
                (fun vb ->
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (id, _) -> (
                      match first_string_in vb.vb_expr with
                      | Some s -> Hashtbl.replace locals (Ident.name id) s
                      | None -> ())
                  | _ -> ())
                vbs
          | Texp_try (_, cases) ->
              List.iter
                (fun c ->
                  if swallows c.c_lhs then
                    fn.fn_sites <- (Swallow, pat_line c.c_lhs) :: fn.fn_sites)
                cases
          | Texp_match (_, cases, _) ->
              List.iter
                (fun c ->
                  match split_pattern c.c_lhs with
                  | _, Some exn when swallows exn ->
                      fn.fn_sites <- (Swallow, pat_line exn) :: fn.fn_sites
                  | _ -> ())
                cases
          | Texp_apply (f, args) -> (
              match f.exp_desc with
              | Texp_ident (p, _, _) -> (
                  let n = Option.value (name_of p) ~default:"" in
                  fn.fn_sites <-
                    List.rev_append (schema_sites n args) fn.fn_sites;
                  if String.ends_with ~suffix:"Lock.acquire" n then begin
                    let key =
                      List.find_map
                        (function
                          | Asttypes.Labelled "key", Some a -> (
                              match first_string_in a with
                              | Some s -> Some s
                              | None -> (
                                  match a.exp_desc with
                                  | Texp_ident (pv, _, _) ->
                                      Hashtbl.find_opt locals (Path.last pv)
                                  | _ -> None))
                          | _ -> None)
                        args
                    in
                    let cls =
                      match key with Some s -> key_class s | None -> "?"
                    in
                    fn.fn_acquires <- (cls, ln) :: fn.fn_acquires
                  end;
                  if is_hashtbl_walk n then
                    match
                      List.find_map
                        (function
                          | Asttypes.Nolabel, Some a -> Some a | _ -> None)
                        args
                    with
                    | Some a ->
                        let sensitive =
                          match a.exp_desc with
                          | Texp_function _ -> order_sensitive_lambda a
                          (* opaque function value: conservatively
                             order-sensitive (wrappers like Hashq.iter) *)
                          | _ -> true
                        in
                        if sensitive then
                          walk_candidates := ln :: !walk_candidates
                    | None -> ())
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body;
  (* [let some_err = code 7]-style constant bindings *)
  (match body.exp_desc with
  | Texp_apply (f, [ (_, Some a) ]) -> (
      match (f.exp_desc, a.exp_desc) with
      | Texp_ident (p, _, _), Texp_constant (Asttypes.Const_int i)
        when last_component (norm_path (Path.name p)) = "code" ->
          fn.fn_code_idx <- Some i
      | _ -> ())
  | _ -> ());
  (* an unsorted walk is only a hazard if nothing in the definition
     sorts the result before it escapes *)
  if
    !walk_candidates <> []
    && not
         (List.exists
            (fun (r, _) -> lowercase_contains (last_component r) "sort")
            fn.fn_refs)
  then
    List.iter
      (fun ln -> fn.fn_direct <- (UnorderedIter, ln) :: fn.fn_direct)
      !walk_candidates;
  fn.fn_refs <- List.rev fn.fn_refs;
  fn.fn_strings <- List.rev fn.fn_strings;
  fn.fn_direct <- List.rev fn.fn_direct;
  fn.fn_acquires <- List.rev fn.fn_acquires;
  fn.fn_sites <- List.rev fn.fn_sites

let collect_binding facts ~unit_name ~file ~prefix ~name_of
    (vb : value_binding) =
  let line = vb.vb_loc.Location.loc_start.Lexing.pos_lnum in
  (* a type-annotated [let x : t = e] binds through an alias pattern *)
  let base =
    match pat_bound_idents vb.vb_pat with
    | [ id ] -> Ident.name id
    | _ -> "<entry:" ^ string_of_int line ^ ">"
  in
  let fn = make_fn ~name:(prefix ^ "." ^ base) ~unit_name ~file ~line in
  walk_binding ~name_of fn vb.vb_expr;
  add_fn facts fn

let rec strip_constraint (me : module_expr) =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> strip_constraint me
  | _ -> me

(* A unit's module-level names, keyed by ident stamp: each value
   binding maps to its name and each module alias to its target
   ([module Glue = Moira.Glue]).  A bare identifier missing from the
   table is a local variable, which must not resolve to a same-named
   toplevel definition. *)
let rec module_name names = function
  | Path.Pident id ->
      Option.value
        (Hashtbl.find_opt names (Ident.unique_name id))
        ~default:(Ident.name id)
  | Path.Pdot (p, s) -> module_name names p ^ "." ^ s
  | p -> Path.name p

let value_name names = function
  | Path.Pident id -> Hashtbl.find_opt names (Ident.unique_name id)
  | p -> Some (norm_path (module_name names p))

let rec scope_items names items =
  List.iter
    (fun (si : structure_item) ->
      match si.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun id ->
              Hashtbl.replace names (Ident.unique_name id) (Ident.name id))
            (let_bound_idents vbs)
      | Tstr_module mb -> scope_module names mb
      | Tstr_recmodule mbs -> List.iter (scope_module names) mbs
      | _ -> ())
    items

and scope_module names mb =
  match ((strip_constraint mb.mb_expr).mod_desc, mb.mb_id) with
  | Tmod_structure s, _ -> scope_items names s.str_items
  | Tmod_ident (p, _), Some id ->
      Hashtbl.replace names (Ident.unique_name id)
        (norm_path (module_name names p))
  | _ -> ()

let rec load_items facts ~unit_name ~file ~prefix ~names items =
  List.iter
    (fun (si : structure_item) ->
      match si.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (collect_binding facts ~unit_name ~file ~prefix
               ~name_of:(value_name names))
            vbs
      | Tstr_module mb ->
          load_module facts ~unit_name ~file ~prefix ~names mb
      | Tstr_recmodule mbs ->
          List.iter (load_module facts ~unit_name ~file ~prefix ~names) mbs
      | _ -> ())
    items

(* A structure's definitions are named under the module's path.  A
   functor application becomes one definition named after the instance
   that uses every value of its argument ([m ^ ".*"], expanded by
   {!callees}), so a use of the instance keeps the argument live. *)
and load_module facts ~unit_name ~file ~prefix ~names mb =
  let name =
    match mb.mb_id with Some id -> Ident.name id | None -> "_"
  in
  match (strip_constraint mb.mb_expr).mod_desc with
  | Tmod_structure s ->
      load_items facts ~unit_name ~file ~prefix:(prefix ^ "." ^ name) ~names
        s.str_items
  | Tmod_apply (_, arg, _) ->
      let line = mb.mb_loc.Location.loc_start.Lexing.pos_lnum in
      let fn = make_fn ~name:(prefix ^ "." ^ name) ~unit_name ~file ~line in
      (match (strip_constraint arg).mod_desc with
      | Tmod_ident (p, _) ->
          fn.fn_refs <- [ (norm_path (module_name names p) ^ ".*", line) ]
      | _ -> ());
      add_fn facts fn
  | _ -> ()

let load_structure facts ~unit_name ~file str =
  let names = Hashtbl.create 64 in
  scope_items names str.str_items;
  load_items facts ~unit_name ~file ~prefix:unit_name ~names str.str_items

let load_cmt facts path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str ->
      let unit_name = norm_path cmt.Cmt_format.cmt_modname in
      let file =
        Option.value cmt.Cmt_format.cmt_sourcefile ~default:unit_name
      in
      load_structure facts ~unit_name ~file str
  | _ -> ()

(* In-process typechecking for test fixtures (stdlib and unix only). *)
let typecheck_initialized = ref false

let load_source facts ~file source =
  if not !typecheck_initialized then begin
    Clflags.include_dirs := "+unix" :: !Clflags.include_dirs;
    Compmisc.init_path ();
    typecheck_initialized := true
  end;
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  let ast = Parse.implementation lexbuf in
  let tstr, _, _, _, _ = Typemod.type_structure env ast in
  let unit_name =
    String.capitalize_ascii
      (Filename.remove_extension (Filename.basename file))
  in
  load_structure facts ~unit_name ~file tstr

(* ---------------- call-graph plumbing ---------------- *)

(* The module paths enclosing a definition, innermost first, down to
   its unit: ["Obs.Slo"; "Obs"] for "Obs.Slo.check" in unit "Obs". *)
let rec enclosing ~unit_name p =
  match String.rindex_opt p '.' with
  | Some i when i >= String.length unit_name ->
      let q = String.sub p 0 i in
      q :: enclosing ~unit_name q
  | _ -> []

(* The names a reference can stand for, in OCaml's scoping order: a
   same-unit reference comes out of the typedtree bare ("helper") or
   partially qualified ("M.mid", "Hashq.iter"), so it is tried under
   each enclosing module first; a cross-unit one is already in public
   form ("Dcm.Update.push"). *)
let candidates fn r =
  List.map
    (fun m -> m ^ "." ^ r)
    (enclosing ~unit_name:fn.fn_unit fn.fn_name)
  @ [ r ]

(* A value of a functor instance ("Queue_map.add") has no definition of
   its own and resolves to the instance's. *)
let resolve (facts : facts) fn r =
  let find r = List.find_opt (Hashtbl.mem facts) (candidates fn r) in
  match find r with
  | Some _ as hit -> hit
  | None -> (
      match String.rindex_opt r '.' with
      | Some i -> find (String.sub r 0 i)
      | None -> None)

(* Every definition in the module a functor argument [m] names. *)
let module_values (facts : facts) fn m =
  List.fold_left
    (fun found c ->
      if found <> [] then found
      else
        Hashtbl.fold
          (fun n _ acc ->
            if String.starts_with ~prefix:(c ^ ".") n then n :: acc else acc)
          facts []
        |> List.sort compare)
    [] (candidates fn m)

let callees facts fn =
  List.concat_map
    (fun (r, _) ->
      if String.ends_with ~suffix:".*" r then
        module_values facts fn (String.sub r 0 (String.length r - 2))
      else Option.to_list (resolve facts fn r))
    fn.fn_refs
  |> List.sort_uniq compare
  |> List.filter (fun g -> g <> fn.fn_name)

let sorted_fns (facts : facts) =
  Hashtbl.fold (fun _ fn acc -> fn :: acc) facts []
  |> List.sort (fun a b -> compare a.fn_name b.fn_name)

(* Names of every fact referencing [name] (unresolved match: callers of
   a protocol constant reference it by its public name). *)
let refs_to (facts : facts) name =
  List.filter_map
    (fun fn ->
      if fn.fn_name <> name
         && List.exists (fun (r, _) -> resolve facts fn r = Some name)
              fn.fn_refs
      then Some fn.fn_name
      else None)
    (sorted_fns facts)

(* A walk whose result pipes into a sorting helper defined in the same
   tree ([by_name] in obs.ml) is ordered even though the sort is one
   call away.  The load-time heuristic only sees refs inside the one
   binding; once the graph exists, discharge those sites.  Idempotent. *)
let discharge_sorted_walks (facts : facts) =
  Hashtbl.iter
    (fun _ fn ->
      if
        List.exists (fun (e, _) -> e = UnorderedIter) fn.fn_direct
        && List.exists
             (fun g ->
               match Hashtbl.find_opt facts g with
               | Some callee ->
                   List.exists
                     (fun (r, _) ->
                       lowercase_contains (last_component r) "sort")
                     callee.fn_refs
               | None -> false)
             (callees facts fn)
      then
        fn.fn_direct <-
          List.filter (fun (e, _) -> e <> UnorderedIter) fn.fn_direct)
    facts

(* The call graph resolved once per analysis: definition -> callees. *)
let graph (facts : facts) =
  let g = Hashtbl.create (Hashtbl.length facts) in
  Hashtbl.iter (fun n fn -> Hashtbl.replace g n (callees facts fn)) facts;
  g

let succs g n = Option.value (Hashtbl.find_opt g n) ~default:[]

(* Transitive effect sets by fixpoint over the call graph (cycles are
   fine: iterate until stable). *)
let compute_effects (facts : facts) =
  discharge_sorted_walks facts;
  let g = graph facts in
  let eff : (string, effect_ list) Hashtbl.t =
    Hashtbl.create (Hashtbl.length facts)
  in
  Hashtbl.iter
    (fun n fn ->
      let own =
        List.map (fun (e, _) -> e) fn.fn_direct
        @ List.map (fun (c, _) -> TakesLock c) fn.fn_acquires
      in
      Hashtbl.replace eff n (List.sort_uniq compare own))
    facts;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun n _ ->
        let cur = Hashtbl.find eff n in
        let merged =
          List.sort_uniq compare
            (cur
            @ List.concat_map
                (fun c -> try Hashtbl.find eff c with Not_found -> [])
                (succs g n))
        in
        if merged <> cur then begin
          Hashtbl.replace eff n merged;
          changed := true
        end)
      facts
  done;
  eff

let transitive facts name =
  let eff = compute_effects facts in
  match Hashtbl.find_opt eff name with Some l -> l | None -> []

let entry_points (facts : facts) =
  let called = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ cs -> List.iter (fun c -> Hashtbl.replace called c ()) cs)
    (graph facts);
  List.filter_map
    (fun fn ->
      if Hashtbl.mem called fn.fn_name then None else Some fn.fn_name)
    (sorted_fns facts)

(* BFS from [srcs] over [g]: every reached definition mapped to its
   parent ("" for a source).  Deterministic because neighbour lists are
   sorted, so the path back from a node is a shortest chain. *)
let reach g srcs =
  let parent = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun s ->
      Hashtbl.replace parent s "";
      Queue.push s q)
    srcs;
  while not (Queue.is_empty q) do
    let n = Queue.pop q in
    List.iter
      (fun c ->
        if not (Hashtbl.mem parent c) then begin
          Hashtbl.replace parent c n;
          Queue.push c q
        end)
      (succs g n)
  done;
  parent

let path_to parent dst =
  let rec back acc n =
    match Hashtbl.find parent n with "" -> n :: acc | p -> back (n :: acc) p
  in
  if Hashtbl.mem parent dst then Some (back [] dst) else None

let chain facts ~src ~dst = path_to (reach (graph facts) [ src ]) dst

(* ---------------- findings ---------------- *)

type finding = {
  f_rule : string;
  f_file : string;
  f_line : int;
  f_msg : string;
  f_chain : string list;
}

type suppress = rule:string -> kind:string -> file:string -> line:int -> bool

let no_suppress ~rule:_ ~kind:_ ~file:_ ~line:_ = false

let pp_finding f =
  let chain =
    match f.f_chain with
    | [] | [ _ ] -> ""
    | c -> "\n    via " ^ String.concat " -> " c
  in
  Printf.sprintf "%s:%d: %s: %s%s" f.f_file f.f_line f.f_rule f.f_msg chain

let sort_findings fs =
  List.sort_uniq compare fs
  |> List.sort (fun a b ->
         compare (a.f_file, a.f_line, a.f_rule, a.f_msg)
           (b.f_file, b.f_line, b.f_rule, b.f_msg))

(* deep-effect: every entry point that can reach a direct wall-clock /
   global-random / unordered-iter site, reported at the site with the
   chain from the entry.  Suppression is judged at the site (fix or
   allow the source, and every path through it clears). *)
let effect_findings ?(suppress = no_suppress) (facts : facts) =
  discharge_sorted_walks facts;
  let reportable = function
    | WallClock | GlobalRandom | UnorderedIter -> true
    | Io | TakesLock _ -> false
  in
  let g = graph facts in
  let entries = entry_points facts in
  let sources =
    List.filter_map
      (fun fn ->
        let sites =
          List.filter (fun (e, _) -> reportable e) fn.fn_direct
        in
        if sites = [] then None else Some (fn, sites))
      (sorted_fns facts)
  in
  List.concat_map
    (fun entry ->
      let parent = reach g [ entry ] in
      List.concat_map
        (fun (src, sites) ->
          match path_to parent src.fn_name with
          | None -> []
          | Some ch ->
              List.filter_map
                (fun (e, ln) ->
                  if
                    suppress ~rule:"deep-effect" ~kind:(effect_name e)
                      ~file:src.fn_file ~line:ln
                  then None
                  else
                    Some
                      {
                        f_rule = "deep-effect";
                        f_file = src.fn_file;
                        f_line = ln;
                        f_msg =
                          Printf.sprintf
                            "%s reaches entry point %s (in %s)"
                            (effect_name e) entry src.fn_name;
                        f_chain = ch;
                      })
                (* one finding per effect kind per source fn *)
                (List.sort_uniq compare
                   (List.map
                      (fun (e, _) ->
                        ( e,
                          List.assoc e sites ))
                      sites)))
        sources)
    entries
  |> sort_findings

(* ---------------- per-definition rules ---------------- *)

(* The rules one definition's facts decide.  [applies] scopes each rule
   to files; [known] says whether a table or column literal names a real
   one. *)
let rule_findings ?(suppress = no_suppress) ~applies ~known (facts : facts) =
  List.concat_map
    (fun fn ->
      let refs_to paths =
        List.filter_map
          (fun (r, ln) -> if List.mem r paths then Some ln else None)
          fn.fn_refs
      in
      let unprotected =
        if refs_to [ "Fun.protect" ] <> [] then []
        else List.map snd fn.fn_acquires
      in
      let site = function
        | Swallow, ln ->
            Some
              ( "swallow-exn",
                ln,
                "wildcard handler discards the exception; match the \
                 exceptions you mean to handle" )
        | (Table_lit s as lit), ln when not (known lit) ->
            Some ("schema-ref", ln, Printf.sprintf "unknown table %S" s)
        | (Column_lit s as lit), ln when not (known lit) ->
            Some ("schema-ref", ln, Printf.sprintf "unknown column %S" s)
        | _ -> None
      in
      let all rule msg lines = List.map (fun ln -> (rule, ln, msg)) lines in
      all "obj-magic" "Obj.magic defeats the type system"
        (refs_to [ "Obj.magic" ])
      @ all "printf-in-lib"
          "stdout print inside lib/; route through an Obs log channel"
          (refs_to stdout_printers)
      @ all "lock-protect"
          "Lock.acquire without Fun.protect: an exception path can leak the \
           lock"
          unprotected
      @ List.filter_map site fn.fn_sites
      |> List.filter_map (fun (rule, ln, msg) ->
             if
               applies ~rule ~file:fn.fn_file
               && not (suppress ~rule ~kind:rule ~file:fn.fn_file ~line:ln)
             then
               Some
                 { f_rule = rule; f_file = fn.fn_file; f_line = ln;
                   f_msg = msg; f_chain = [] }
             else None))
    (sorted_fns facts)
  |> sort_findings

(* ---------------- dead exports ---------------- *)

(* dead-export: a named definition under [lib] that no root reaches.
   Every definition outside [lib] is a root (the executables, tests,
   benches and examples are what the library is for), and so is a
   toplevel effect, which runs whenever its module links, an
   error-table binding, which stays so proto-exhaustive's gap check
   holds, and a definition kept by a suppression: what it uses stays
   live with it. *)
let dead_findings ?(suppress = no_suppress) (facts : facts) ~lib =
  let fns = sorted_fns facts in
  let g = graph facts in
  let root fn =
    (not (String.starts_with ~prefix:lib fn.fn_file))
    || String.starts_with ~prefix:"<" (last_component fn.fn_name)
    || fn.fn_code_idx <> None
  in
  let kept fn =
    suppress ~rule:"dead-export" ~kind:"value" ~file:fn.fn_file
      ~line:fn.fn_line
  in
  let rec live roots =
    let reached = reach g (List.map (fun fn -> fn.fn_name) roots) in
    let dead fn = not (Hashtbl.mem reached fn.fn_name) in
    match List.filter (fun fn -> dead fn && kept fn) fns with
    | [] -> reached
    | more -> live (roots @ more)
  in
  let reached = live (List.filter root fns) in
  List.filter_map
    (fun fn ->
      if Hashtbl.mem reached fn.fn_name then None
      else
        Some
          {
            f_rule = "dead-export";
            f_file = fn.fn_file;
            f_line = fn.fn_line;
            f_msg =
              Printf.sprintf "%s is unreachable from everything outside %s"
                fn.fn_name lib;
            f_chain = [];
          })
    fns
  |> sort_findings

(* ---------------- internal exports ---------------- *)

(* The toplevel [val]s of one [.cmti], as blank fact records (nested
   signatures are not looked into). *)
let load_cmti path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Interface sg ->
      let unit_name = norm_path cmt.Cmt_format.cmt_modname in
      let file =
        Option.value cmt.Cmt_format.cmt_sourcefile ~default:unit_name
      in
      List.filter_map
        (fun (si : signature_item) ->
          match si.sig_desc with
          | Tsig_value vd ->
              Some
                (make_fn ~unit_name ~file
                   ~name:(unit_name ^ "." ^ vd.val_name.Location.txt)
                   ~line:vd.val_loc.Location.loc_start.Lexing.pos_lnum)
          | _ -> None)
        sg.sig_items
  | _ -> []

(* internal-export: an interface value no definition outside its own
   unit names, as written or resolved.  Error-table bindings are
   exempt, as they are roots for dead-export. *)
let internal_findings ?(suppress = no_suppress) (facts : facts) vals =
  let g = graph facts in
  let namers = Hashtbl.create 4096 in
  Hashtbl.iter
    (fun n fn ->
      List.iter
        (fun t -> Hashtbl.add namers t fn.fn_unit)
        (succs g n @ List.map fst fn.fn_refs))
    facts;
  let exempt v =
    List.exists (fun u -> u <> v.fn_unit) (Hashtbl.find_all namers v.fn_name)
    || (match Hashtbl.find_opt facts v.fn_name with
       | Some fn -> fn.fn_code_idx <> None
       | None -> false)
    || suppress ~rule:"internal-export" ~kind:"val" ~file:v.fn_file
         ~line:v.fn_line
  in
  List.filter_map
    (fun v ->
      if exempt v then None
      else
        Some
          {
            f_rule = "internal-export";
            f_file = v.fn_file;
            f_line = v.fn_line;
            f_msg =
              Printf.sprintf "%s is named only inside %s: drop it from the \
                              interface" v.fn_name v.fn_unit;
            f_chain = [];
          })
    vals
  |> sort_findings

(* ---------------- static lock-order graph ---------------- *)

type lock_edge = {
  le_from : string;
  le_to : string;
  le_why : string;
  le_file : string;
  le_line : int;
}

(* Over-approximate: within one definition, any later acquire (or any
   later call whose callee graph acquires) is treated as nested inside
   every earlier one.  Same-class pairs are skipped — instances of one
   class are taken sequentially, never nested (the runtime sanitizer's
   double-acquire check enforces that side). *)
let lock_edges (facts : facts) =
  let eff = compute_effects facts in
  let lock_classes_of g =
    List.filter_map
      (function TakesLock c -> Some c | _ -> None)
      (match Hashtbl.find_opt eff g with Some l -> l | None -> [])
  in
  let edges = ref [] in
  let add e =
    if
      not
        (List.exists
           (fun e' -> e'.le_from = e.le_from && e'.le_to = e.le_to)
           !edges)
    then edges := e :: !edges
  in
  List.iter
    (fun fn ->
      List.iter
        (fun (c1, l1) ->
          (* later direct acquires in the same definition *)
          List.iter
            (fun (c2, l2) ->
              if l2 > l1 && c1 <> c2 then
                add
                  {
                    le_from = c1;
                    le_to = c2;
                    le_why =
                      Printf.sprintf "%s acquires %s then %s" fn.fn_name c1
                        c2;
                    le_file = fn.fn_file;
                    le_line = l2;
                  })
            fn.fn_acquires;
          (* later calls into lock-taking callees *)
          List.iter
            (fun (r, l2) ->
              if l2 > l1 then
                match resolve facts fn r with
                | Some g ->
                    List.iter
                      (fun c2 ->
                        if c1 <> c2 then
                          add
                            {
                              le_from = c1;
                              le_to = c2;
                              le_why =
                                Printf.sprintf
                                  "%s holds %s when calling %s (takes %s)"
                                  fn.fn_name c1 g c2;
                              le_file = fn.fn_file;
                              le_line = l2;
                            })
                      (lock_classes_of g)
                | None -> ())
            fn.fn_refs)
        fn.fn_acquires)
    (sorted_fns facts);
  List.sort compare !edges

(* First cycle in the class digraph, as a node path, if any. *)
let find_cycle edges =
  let succs n =
    List.filter_map
      (fun e -> if e.le_from = n then Some e.le_to else None)
      edges
  in
  let nodes =
    List.sort_uniq compare
      (List.concat_map (fun e -> [ e.le_from; e.le_to ]) edges)
  in
  let rec dfs path visiting n =
    if List.mem n path then
      (* cycle: the suffix of [path] from n, plus n again *)
      let rec suffix = function
        | [] -> []
        | x :: rest -> if x = n then x :: rest else suffix rest
      in
      Some (suffix (List.rev path) @ [ n ])
    else if List.mem n visiting then None
    else
      List.fold_left
        (fun acc s ->
          match acc with Some _ -> acc | None -> dfs (n :: path) visiting s)
        None (succs n)
  in
  List.fold_left
    (fun acc n -> match acc with Some _ -> acc | None -> dfs [] [] n)
    None nodes

let lock_findings ?(suppress = no_suppress) (facts : facts) =
  let opaque =
    List.concat_map
      (fun fn ->
        List.filter_map
          (fun (c, ln) ->
            if c <> "?" then None
            else if
              suppress ~rule:"lock-order" ~kind:"opaque-key"
                ~file:fn.fn_file ~line:ln
            then None
            else
              Some
                {
                  f_rule = "lock-order";
                  f_file = fn.fn_file;
                  f_line = ln;
                  f_msg =
                    Printf.sprintf
                      "%s acquires a lock whose key the static analysis \
                       cannot classify"
                      fn.fn_name;
                  f_chain = [];
                })
          fn.fn_acquires)
      (sorted_fns facts)
  in
  let edges = lock_edges facts in
  let cycle =
    match find_cycle edges with
    | None -> []
    | Some path ->
        let evidence =
          List.filter
            (fun e -> List.mem e.le_from path && List.mem e.le_to path)
            edges
        in
        let e0 = List.hd evidence in
        if
          suppress ~rule:"lock-order" ~kind:"cycle" ~file:e0.le_file
            ~line:e0.le_line
        then []
        else
          [
            {
              f_rule = "lock-order";
              f_file = e0.le_file;
              f_line = e0.le_line;
              f_msg =
                Printf.sprintf "lock-order cycle: %s"
                  (String.concat " -> " path);
              f_chain = List.map (fun e -> e.le_why) evidence;
            };
          ]
  in
  sort_findings (opaque @ cycle)

(* ---------------- protocol exhaustiveness ---------------- *)

(* Does a markdown table in [doc] have a cell equal to [v]? *)
let doc_has_cell doc v =
  List.exists
    (fun line ->
      let line = String.trim line in
      String.length line > 0
      && line.[0] = '|'
      && List.exists
           (fun cell -> String.trim cell = v)
           (String.split_on_char '|' line))
    (String.split_on_char '\n' doc)

let proto_finding ?(chain = []) facts ~rule name msg =
  let file, line =
    match Hashtbl.find_opt facts name with
    | Some fn -> (fn.fn_file, fn.fn_line)
    | None -> ("?", 0)
  in
  { f_rule = rule; f_file = file; f_line = line; f_msg = msg; f_chain = chain }

(* References a protocol op or verb needs: in a request/reply protocol,
   the sender and the dispatch arm. *)
let min_refs = 2

(* Every opcode must be referenced from at least [min_refs] distinct
   definitions and appear as a table cell in the doc. *)
let proto_op_findings ?(suppress = no_suppress) (facts : facts) ~doc ops =
  List.concat_map
    (fun (name, value) ->
      let refs = refs_to facts name in
      let mk ?chain msg =
        proto_finding ?chain facts ~rule:"proto-exhaustive" name msg
      in
      let arm =
        if List.length refs >= min_refs then []
        else
          [
            mk ~chain:refs
              (Printf.sprintf
                 "opcode %s (%d) referenced from %d definition(s), needs \
                  >= %d (sender + dispatch arm)"
                 name value (List.length refs) min_refs);
          ]
      in
      let docd =
        if doc_has_cell doc (string_of_int value) then []
        else
          [
            mk
              (Printf.sprintf "opcode %s (%d) has no PROTOCOL.md table row"
                 name value);
          ]
      in
      arm @ docd)
    ops
  |> List.filter (fun f ->
         not
           (suppress ~rule:"proto-exhaustive" ~kind:"op" ~file:f.f_file
              ~line:f.f_line))
  |> sort_findings

(* String verbs (the replication protocol): the literal must occur in
   at least [min_refs] distinct definitions of [unit_name] (client
   sender and server match arm) and in the doc's table. *)
let proto_verb_findings ?(suppress = no_suppress) (facts : facts) ~doc
    ~unit_name verbs =
  let fns_with_string v =
    List.filter_map
      (fun fn ->
        if
          fn.fn_unit = unit_name
          && List.exists (fun (s, _) -> s = v) fn.fn_strings
        then Some fn.fn_name
        else None)
      (sorted_fns facts)
  in
  List.concat_map
    (fun v ->
      let where = fns_with_string v in
      let file, line =
        match where with
        | n :: _ -> (
            match Hashtbl.find_opt facts n with
            | Some fn -> (fn.fn_file, fn.fn_line)
            | None -> ("?", 0))
        | [] -> ("?", 0)
      in
      let mk msg chain =
        { f_rule = "proto-exhaustive"; f_file = file; f_line = line;
          f_msg = msg; f_chain = chain }
      in
      let arm =
        if List.length where >= min_refs then []
        else
          [
            mk
              (Printf.sprintf
                 "verb %S appears in %d definition(s) of %s, needs >= %d \
                  (sender + handler arm)"
                 v (List.length where) unit_name min_refs)
              where;
          ]
      in
      let docd =
        if doc_has_cell doc v then []
        else [ mk (Printf.sprintf "verb %S has no PROTOCOL.md table row" v) [] ]
      in
      arm @ docd)
    verbs
  |> List.filter (fun f ->
         not
           (suppress ~rule:"proto-exhaustive" ~kind:"verb" ~file:f.f_file
              ~line:f.f_line))
  |> sort_findings

(* The [let name = code <idx>] bindings of an error-table unit. *)
let err_codes (facts : facts) ~unit_name =
  List.filter_map
    (fun fn ->
      if fn.fn_unit = unit_name then
        match fn.fn_code_idx with
        | Some i -> Some (fn.fn_name, i)
        | None -> None
      else None)
    (sorted_fns facts)

(* Error codes: named bindings must cover the message table exactly
   (unique indices, in range, no gaps) and each index must have a row
   in the doc's error table. *)
let proto_err_findings ?(suppress = no_suppress) (facts : facts) ~doc
    ~unit_name ~size () =
  let codes = err_codes facts ~unit_name in
  let mk name msg = proto_finding facts ~rule:"proto-exhaustive" name msg in
  let by_idx = List.map (fun (n, i) -> (i, n)) codes in
  let dups =
    List.filter_map
      (fun (n, i) ->
        match List.filter (fun (i', _) -> i' = i) by_idx with
        | _ :: _ :: _ ->
            Some
              (mk n
                 (Printf.sprintf
                    "error index %d bound more than once (%s)" i
                    (String.concat ", "
                       (List.map snd
                          (List.filter (fun (i', _) -> i' = i) by_idx)))))
        | _ -> None)
      codes
  in
  let range =
    List.filter_map
      (fun (n, i) ->
        if i < 0 || i >= size then
          Some
            (mk n
               (Printf.sprintf
                  "error index %d out of range for a %d-message table" i
                  size))
        else None)
      codes
  in
  let gaps =
    List.init size (fun i -> i)
    |> List.filter_map (fun i ->
           if List.mem_assoc i by_idx then None
           else
             Some
               {
                 f_rule = "proto-exhaustive";
                 f_file = "?";
                 f_line = 0;
                 f_msg =
                   Printf.sprintf
                     "error index %d of %s has a message but no named \
                      binding"
                     i unit_name;
                 f_chain = [];
               })
  in
  let docd =
    List.filter_map
      (fun (n, i) ->
        if doc_has_cell doc (string_of_int i) then None
        else
          Some
            (mk n
               (Printf.sprintf
                  "error code %s (index %d) has no PROTOCOL.md table row" n
                  i)))
      codes
  in
  dups @ range @ gaps @ docd
  |> List.filter (fun f ->
         not
           (suppress ~rule:"proto-exhaustive" ~kind:"err" ~file:f.f_file
              ~line:f.f_line))
  |> sort_findings

(* ---------------- JSON report ---------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_str s = "\"" ^ json_escape s ^ "\""

let json_of_finding f =
  Printf.sprintf
    "{\"rule\":%s,\"file\":%s,\"line\":%d,\"msg\":%s,\"chain\":[%s]}"
    (json_str f.f_rule) (json_str f.f_file) f.f_line (json_str f.f_msg)
    (String.concat "," (List.map json_str f.f_chain))

(* [info] entries are pre-rendered JSON values keyed by field name. *)
let report_json ~findings ~info =
  let fields =
    ("findings",
     "[" ^ String.concat "," (List.map json_of_finding findings) ^ "]")
    :: info
  in
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields)
  ^ "}\n"
