(* moira-lint: a compiler-libs source linter for the syntactic rules.

   The paper's bet (section 7) is that all database access goes through
   predefined query handles and all fleet mutation through the DCM's
   lock-guarded update protocol, which makes the whole surface statically
   checkable.  This module checks what one expression or one definition
   shows: it parses every .ml file with the real OCaml parser and walks
   the Parsetree enforcing the rules below.  Effects that matter through
   a call chain (wall-clock reads, the global [Random], hash-ordered
   iteration reaching output) belong to the deep pass ([Deep], rule
   [deep-effect]), which reports each at its site with the chain.  The
   executable driver is [bin/moira_lint.ml]; the test suite feeds
   fixture snippets straight to {!lint_source}.

   Rules (ids as reported):
   - [obj-magic]      no [Obj.magic].
   - [swallow-exn]    no [try ... with _ ->] that discards the exception:
                      match the exceptions you mean to handle.
   - [lock-protect]   a toplevel definition that calls [Lock.acquire]
                      must also use [Fun.protect] (the release lives in
                      its [~finally]), so no exception path leaks a lock.
   - [schema-ref]     string literals in table/column positions of known
                      calls ([Mdb.table], [Pred.eq_*], [Table.field],
                      [Gen.watch], ...) must name a real [Schema_def]
                      table or column.  Applies to [lib/] and [bin/]
                      only: tests and benches legitimately build ad-hoc
                      relations with local schemas.
   - [printf-in-lib]  no stdout printing inside [lib/]: route it through
                      an [Obs] log channel.  Drivers own their stdout.
   - [bad-allow]      a [lint: allow] annotation without a rule id the
                      linter knows (a retired id included), or without
                      a reason.
   - [unused-allow]   an annotation that suppresses nothing (stale after
                      a refactor); keeps suppressions honest.  The deep
                      rules' annotations are the deep pass's to judge.

   Suppression: an allow comment — open-comment immediately followed by
   [lint: allow <rule> -- <reason>] (em dash or [--] before the reason)
   — on the offending line, or alone on the line directly above.  The
   scanner keys on the literal open-comment marker so prose *about* the
   syntax (like this paragraph) is not parsed as an annotation. *)

type violation = {
  v_file : string;
  v_line : int;
  v_rule : string;
  v_msg : string;
}

(* The rule catalogue, per-file allowlist and [lint: allow] scanner
   live in [Allow], shared with the interprocedural pass. *)
open Allow

(* ---------------- AST helpers ---------------- *)

open Parsetree

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

(* [Longident.flatten] fatals on [Lapply] (functor application in an
   ident path); no rule cares about those. *)
let flat lid =
  try Longident.flatten lid with Misc.Fatal_error -> []

let ends_with l suffix =
  let nl = List.length l and ns = List.length suffix in
  nl >= ns
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  drop (nl - ns) l = suffix

(* All value identifiers in a structure item's subtree. *)
let idents_in_item si =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> acc := (flat txt, e.pexp_loc) :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure_item it si;
  List.rev !acc

let string_const e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* String literals in a subtree (for ~columns:[...] style list args). *)
let string_consts_in e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match string_const e with
          | Some s -> acc := (s, e.pexp_loc) :: !acc
          | None -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  List.rev !acc

let rec pat_swallows p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_var { txt; _ } ->
      (* [with _e ->] declares the handler won't look at the exception:
         same swallow as [with _ ->], just better camouflaged *)
      String.length txt > 0 && txt.[0] = '_'
  | Ppat_or (a, b) -> pat_swallows a || pat_swallows b
  | Ppat_alias (p, _) -> pat_swallows p
  | _ -> false

(* ---------------- schema knowledge ---------------- *)

let table_names =
  List.map Relation.Schema.name Moira.Schema_def.all

let column_names =
  List.concat_map
    (fun s ->
      Array.to_list (Relation.Schema.columns s)
      |> List.map (fun c -> c.Relation.Schema.cname))
    Moira.Schema_def.all
  |> List.sort_uniq String.compare

let is_table t = List.mem t table_names
let is_column c = List.mem c column_names

(* ---------------- printers ---------------- *)

(* stdout-only printers; stderr ([prerr_*], [Printf.eprintf]) is left to
   com_err's reporting convention. *)
let is_stdout_print l =
  match l with
  | [ x ] | [ "Stdlib"; x ] ->
      List.mem x
        [
          "print_string"; "print_endline"; "print_newline"; "print_int";
          "print_char"; "print_float"; "print_bytes";
        ]
  | [ "Printf"; "printf" ] | [ "Stdlib"; "Printf"; "printf" ] -> true
  | [ "Format"; "printf" ] | [ "Stdlib"; "Format"; "printf" ] -> true
  | _ -> false

(* ---------------- the main walk ---------------- *)

(* Column positions of known call targets.  Two groups, because the
   functions in the first also take a string *value*: there the column
   is strictly the first unlabelled argument (skipped when it is a
   computed string rather than a literal).  In the second group no
   other argument can be a string, so any string literal is a column. *)
let column_fns_first =
  [ [ "Pred"; "eq_str" ]; [ "Pred"; "name_match" ] ]

let column_fns_any =
  [
    [ "Pred"; "eq_int" ]; [ "Pred"; "eq_bool" ]; [ "Table"; "field" ];
    [ "Schema"; "index_of" ]; [ "seti" ]; [ "setb" ];
  ]

(* Table positions: every unlabelled string literal names a table. *)
let table_fns = [ [ "Mdb"; "table" ]; [ "Db"; "table" ] ]

let check_expr ~report e =
  (match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match flat txt with
      | l when ends_with l [ "Obj"; "magic" ] ->
          report e.pexp_loc "obj-magic" "Obj.magic defeats the type system"
      | l when is_stdout_print l ->
          report e.pexp_loc "printf-in-lib"
            "stdout print inside lib/; route through an Obs log channel"
      | _ -> ())
  | Pexp_try (_, cases) ->
      List.iter
        (fun c ->
          if pat_swallows c.pc_lhs then
            report c.pc_lhs.ppat_loc "swallow-exn"
              "wildcard handler discards the exception; match the \
               exceptions you mean to handle")
        cases
  | Pexp_apply (f, args) -> (
      match f.pexp_desc with
      | Pexp_ident { txt; _ } ->
          let fl = flat txt in
          (* schema-ref: table positions *)
          if List.exists (fun t -> ends_with fl t) table_fns then
            List.iter
              (fun (lbl, arg) ->
                match (lbl, string_const arg) with
                | Asttypes.Nolabel, Some s when not (is_table s) ->
                    report arg.pexp_loc "schema-ref"
                      (Printf.sprintf "unknown table %S" s)
                | _ -> ())
              args;
          (* schema-ref: Gen.watch — unlabelled literal is a table,
             ~columns literals are columns of it *)
          if ends_with fl [ "Gen"; "watch" ] then
            List.iter
              (fun (lbl, arg) ->
                match lbl with
                | Asttypes.Nolabel -> (
                    match string_const arg with
                    | Some s when not (is_table s) ->
                        report arg.pexp_loc "schema-ref"
                          (Printf.sprintf "unknown table %S" s)
                    | _ -> ())
                | Asttypes.Labelled "columns"
                | Asttypes.Optional "columns" ->
                    List.iter
                      (fun (s, loc) ->
                        if not (is_column s) then
                          report loc "schema-ref"
                            (Printf.sprintf "unknown column %S" s))
                      (string_consts_in arg)
                | _ -> ())
              args;
          (* schema-ref: column positions *)
          let check_col (s, loc) =
            if not (is_column s) then
              report loc "schema-ref"
                (Printf.sprintf "unknown column %S" s)
          in
          if List.exists (fun t -> ends_with fl t) column_fns_first then begin
            (* strictly the first unlabelled argument, literal or not *)
            let first =
              List.find_opt
                (fun (lbl, _) -> lbl = Asttypes.Nolabel)
                args
            in
            match first with
            | Some (_, arg) -> (
                match string_const arg with
                | Some s -> check_col (s, arg.pexp_loc)
                | None -> ())
            | None -> ()
          end;
          if List.exists (fun t -> ends_with fl t) column_fns_any then
            List.iter
              (fun (lbl, arg) ->
                match (lbl, string_const arg) with
                | Asttypes.Nolabel, Some s -> check_col (s, arg.pexp_loc)
                | _ -> ())
              args
      | _ -> ())
  | _ -> ())

let check_structure ~report str =
  (* lock-protect: per toplevel definition *)
  List.iter
    (fun si ->
      let ids = idents_in_item si in
      let acquires =
        List.filter (fun (l, _) -> ends_with l [ "Lock"; "acquire" ]) ids
      in
      if
        acquires <> []
        && not
             (List.exists
                (fun (l, _) -> ends_with l [ "Fun"; "protect" ])
                ids)
      then
        List.iter
          (fun (_, loc) ->
            report loc "lock-protect"
              "Lock.acquire without Fun.protect: an exception path can \
               leak the lock")
          acquires)
    str;
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          check_expr ~report e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it str

(* ---------------- entry points ---------------- *)

let lint_source ~file source =
  let allows, bad_allows = scan_allows source in
  let raw = ref [] in
  let report loc rule msg =
    raw := (line_of loc, rule, msg) :: !raw
  in
  (try
     let lexbuf = Lexing.from_string source in
     Location.init lexbuf file;
     let str = Parse.implementation lexbuf in
     check_structure ~report str
   with
  | Syntaxerr.Error _ ->
      report Location.none "bad-allow" "parse error (file does not compile?)"
  | Lexer.Error (_, loc) -> report loc "bad-allow" "lexer error");
  let suppressed (line, rule, _) =
    match
      List.find_opt
        (fun a ->
          a.a_rule = rule
          && (a.a_line = line || (a.a_solo && a.a_line = line - 1)))
        allows
    with
    | Some a ->
        a.a_used <- true;
        true
    | None -> false
  in
  (* [printf-in-lib] is scoped to lib/: clients and benches print to
     their terminal by design. *)
  let rule_applies rule =
    rule <> "printf-in-lib" || Allow.contains_sub file "lib/"
  in
  let violations =
    List.filter
      (fun ((_, rule, _) as v) ->
        rule_applies rule
        && (not (file_allowed ~file rule))
        && not (suppressed v))
      (List.rev !raw)
  in
  let unused =
    List.filter_map
      (fun a ->
        if a.a_used || is_deep_rule a.a_rule then None
        else
          Some
            ( a.a_line,
              "unused-allow",
              Printf.sprintf "allow %s suppresses nothing" a.a_rule ))
      allows
  in
  let bad =
    List.map (fun (line, msg) -> (line, "bad-allow", msg)) bad_allows
  in
  List.sort compare (violations @ unused @ bad)
  |> List.map (fun (line, rule, msg) ->
         { v_file = file; v_line = line; v_rule = rule; v_msg = msg })

let lint_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let source = really_input_string ic n in
  close_in ic;
  lint_source ~file source

let default_roots = [ "lib"; "bin"; "test"; "bench"; "examples" ]

let rec files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if entry = "_build" || String.length entry > 0 && entry.[0] = '.'
           then []
           else files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let pp_violation v =
  Printf.sprintf "%s:%d: %s: %s" v.v_file v.v_line v.v_rule v.v_msg

(* The interprocedural pass, re-exported: [lint] is an unwrapped
   library whose only public module is this one. *)
module Deep = Deep
module Deep_moira = Deep_moira
