(* Deep_moira: the [Deep] engine bound to this repository.

   Knows where dune leaves the [.cmt] and [.cmti] files, which files
   each per-definition rule covers, the schema [schema-ref] checks
   literals against, which opcodes / verbs / error tables make up the
   wire protocol (read off the linked libraries themselves, so the
   model can never drift from the code), which PROTOCOL.md sections
   document them, and how to spin the simulated chaos day whose
   sanitizer-observed lock acquisitions cross-check the static
   lock-order graph.  [bin/moira_lint.ml] runs it; the
   suppression syntax is [lint: allow <rule> -- <reason>] with any
   rule id of [Allow.rules]. *)

(* ---------------- .cmt discovery ---------------- *)

let rec build_files ~suffix path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun e -> build_files ~suffix (Filename.concat path e))
  else if Filename.check_suffix path suffix then [ path ]
  else []

(* Every build root: the library and everything linking it, so a
   definition outside [lib/] is a use that keeps lib code live. *)
let roots = [ "lib"; "bin"; "test"; "bench"; "examples"; "perfbench" ]

let load_dirs facts dirs =
  List.concat_map (build_files ~suffix:".cmt") dirs
  |> List.iter (Deep.load_cmt facts)

(* The toplevel values of every [lib/] interface. *)
let lib_interfaces () =
  build_files ~suffix:".cmti" "_build/default/lib"
  |> List.concat_map Deep.load_cmti

(* ---------------- per-definition rule scope ---------------- *)

let under dirs file =
  List.exists (fun d -> String.starts_with ~prefix:(d ^ "/") file) dirs

(* The per-definition rules cover lib bin test bench examples:
   perfbench/ is a root for the call-graph rules only.  [schema-ref]
   skips test/ and bench/, which build ad-hoc relations with local
   schemas; [printf-in-lib] covers lib/, since executables own their
   stdout. *)
let applies ~rule ~file =
  under [ "lib"; "bin"; "test"; "bench"; "examples" ] file
  &&
  match rule with
  | "schema-ref" -> under [ "lib"; "bin"; "examples" ] file
  | "printf-in-lib" -> under [ "lib" ] file
  | _ -> true

let table_names = List.map Relation.Schema.name Moira.Schema_def.all

let column_names =
  List.concat_map
    (fun s ->
      Array.to_list (Relation.Schema.columns s)
      |> List.map (fun c -> c.Relation.Schema.cname))
    Moira.Schema_def.all

let known = function
  | Deep.Table_lit t -> List.mem t table_names
  | Deep.Column_lit c -> List.mem c column_names
  | Deep.Swallow -> true

(* ---------------- protocol model ---------------- *)

(* Opcode values come from the linked libraries, names from the
   corresponding facts — the model cannot drift from the code. *)
let ops () =
  [
    ("Gdb.Wire.op_open", Gdb.Wire.op_open);
    ("Gdb.Wire.op_close", Gdb.Wire.op_close);
    ("Moira.Protocol.op_noop", Moira.Protocol.op_noop);
    ("Moira.Protocol.op_auth", Moira.Protocol.op_auth);
    ("Moira.Protocol.op_query", Moira.Protocol.op_query);
    ("Moira.Protocol.op_access", Moira.Protocol.op_access);
    ("Moira.Protocol.op_trigger_dcm", Moira.Protocol.op_trigger_dcm);
    ("Moira.Protocol.op_query2", Moira.Protocol.op_query2);
    ("Dcm.Update.op_script", Dcm.Update.op_script);
    ("Dcm.Update.op_flush", Dcm.Update.op_flush);
    ("Dcm.Update.op_exec", Dcm.Update.op_exec);
    ("Dcm.Update.op_manifest", Dcm.Update.op_manifest);
    ("Dcm.Update.op_delta", Dcm.Update.op_delta);
    ("Userreg.op_verify", Userreg.op_verify);
    ("Userreg.op_grab", Userreg.op_grab);
    ("Userreg.op_setpw", Userreg.op_setpw);
  ]

let verbs = [ "SUBSCRIBE"; "FETCH"; "HEARTBEAT"; "SNAPSHOT" ]

(* ---------------- PROTOCOL.md sections ---------------- *)

(* Text of the section whose "## " heading contains [title], up to the
   next "## " heading — so op numbers are only looked up in their own
   tables (error index 16 must not be satisfied by opcode 16's row). *)
let section md title =
  let lines = String.split_on_char '\n' md in
  let title = String.lowercase_ascii title in
  let rec skip = function
    | [] -> []
    | l :: rest ->
        if
          String.starts_with ~prefix:"## " l
          && Allow.contains_sub (String.lowercase_ascii l) title
        then take rest [ l ]
        else skip rest
  and take rest acc =
    match rest with
    | [] -> List.rev acc
    | l :: _ when String.starts_with ~prefix:"## " l -> List.rev acc
    | l :: rest -> take rest (l :: acc)
  in
  String.concat "\n" (skip lines)

(* ---------------- suppression (lint: allow) ---------------- *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* The annotations of every given file, scanned eagerly so stale allows
   in finding-free files are still detected: per file, the well-formed
   ones and the malformed ones' (line, message). *)
let scan_allow_state ~read files =
  let st = Hashtbl.create 64 in
  List.iter
    (fun file ->
      if not (Hashtbl.mem st file) then
        Hashtbl.replace st file
          (match read file with
          | Some src -> Allow.scan_allows src
          | None -> ([], [])))
    files;
  st

let fact_files facts =
  List.map (fun (fn : Deep.fn) -> fn.Deep.fn_file) (Deep.sorted_fns facts)

(* The per-file allowlist keys on the effect kind: a file allowed to
   read the wall clock is allowed to leak it. *)
let suppress_of st : Deep.suppress =
 fun ~rule ~kind ~file ~line ->
  Allow.file_allowed ~file kind
  ||
  match Hashtbl.find_opt st file with
  | None -> false
  | Some (allows, _) -> (
      match
        List.find_opt
          (fun (a : Allow.allow) ->
            a.Allow.a_rule = rule
            && (a.Allow.a_line = line
               || (a.Allow.a_solo && a.Allow.a_line = line - 1)))
          allows
      with
      | Some a ->
          a.Allow.a_used <- true;
          true
      | None -> false)

let suppress facts =
  suppress_of (scan_allow_state ~read:read_file (fact_files facts))

(* Malformed allows, and stale ones once every check has had its chance
   to use them, file by file in name order. *)
let allow_findings st =
  Hashtbl.fold (fun file v acc -> (file, v) :: acc) st []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.concat_map (fun (file, (allows, bad)) ->
         let finding f_rule f_line f_msg =
           { Deep.f_rule; f_file = file; f_line; f_msg; f_chain = [] }
         in
         List.map (fun (line, msg) -> finding "bad-allow" line msg) bad
         @ List.filter_map
             (fun (a : Allow.allow) ->
               if a.Allow.a_used then None
               else
                 Some
                   (finding "unused-allow" a.Allow.a_line
                      (Printf.sprintf "allow %s suppresses nothing"
                         a.Allow.a_rule)))
             allows)

(* The rules every fact table answers, then [whole]'s tree-wide ones,
   then allow hygiene, under one allow scan. *)
let check ~read ~files ~whole facts =
  let st = scan_allow_state ~read (files @ fact_files facts) in
  let suppress = suppress_of st in
  let fs =
    Deep.rule_findings ~suppress ~applies ~known facts
    @ Deep.effect_findings ~suppress facts
    @ Deep.lock_findings ~suppress facts
    @ whole suppress
  in
  Deep.sort_findings (fs @ allow_findings st)

let findings ~read facts =
  check ~read ~files:[] ~whole:(fun _ -> []) facts

(* ---------------- chaos-day cross-check ---------------- *)

(* One simulated day with the runtime sanitizer on: boot the full
   testbed, commit a user change at t+9h so the DCM generates and
   pushes (service and host locks both get exercised), run 26 hours,
   and read back the (held-class -> acquired-class) pairs the monitor
   witnessed. *)
let observed_edges_chaos () =
  let open Workload in
  let tb = Testbed.create ~sanitize:true () in
  ignore
    (Sim.Engine.schedule tb.Testbed.engine
       ~at:(Sim.Engine.now tb.Testbed.engine + (9 * 3600 * 1000))
       "deep-lint user change"
       (fun () ->
         ignore
           (Moira.Glue.query tb.Testbed.glue ~name:"update_user_shell"
              [ tb.Testbed.built.Population.logins.(0); "/bin/deep" ])));
  Testbed.run_hours tb 26;
  match tb.Testbed.sanitizer with
  | Some s -> Dcm.Sanitizer.observed_lock_edges s
  | None -> []

(* Observed must be a subset of static (else the static graph is
   unsound), and static must not be empty while locks demonstrably
   nest at runtime (else it is vacuous). *)
let cross_check_findings ~static ~observed =
  let missing =
    List.filter (fun e -> not (List.mem e static)) observed
  in
  let unsound =
    List.map
      (fun (a, b) ->
        {
          Deep.f_rule = "lock-order";
          f_file = "<sanitizer-cross-check>";
          f_line = 0;
          f_msg =
            Printf.sprintf
              "runtime sanitizer observed lock edge %s -> %s absent from \
               the static graph (static analysis is unsound)"
              a b;
          f_chain = [];
        })
      missing
  in
  let vacuous =
    if static = [] && observed <> [] then
      [
        {
          Deep.f_rule = "lock-order";
          f_file = "<sanitizer-cross-check>";
          f_line = 0;
          f_msg =
            "static lock-order graph is empty but the runtime sanitizer \
             observed nested acquisitions (static analysis is vacuous)";
          f_chain = [];
        };
      ]
    else []
  in
  unsound @ vacuous

(* ---------------- the full run ---------------- *)

type report = {
  r_findings : Deep.finding list;
  r_functions : int;
  r_entries : int;
  r_static_edges : (string * string) list;
  r_observed_edges : (string * string) list;
  r_unreferenced_errs : string list;
  r_json : string;
}

let json_pairs edges =
  "["
  ^ String.concat ","
      (List.map
         (fun (a, b) ->
           "[" ^ Deep.json_str a ^ "," ^ Deep.json_str b ^ "]")
         edges)
  ^ "]"

let json_strings l =
  "[" ^ String.concat "," (List.map Deep.json_str l) ^ "]"

let run ?(chaos = true) () =
  let facts = Deep.create () in
  load_dirs facts (List.map (Filename.concat "_build/default") roots);
  let vals = lib_interfaces () in
  let md =
    Option.value (read_file "PROTOCOL.md") ~default:""
  in
  let ops_doc =
    section md "Major request numbers"
    ^ "\n" ^ section md "update service"
    ^ "\n" ^ section md "registration service"
  in
  let verbs_doc = section md "replication service" in
  let err_doc = section md "Error codes" in
  let err_unit = "Moira.Mr_err" in
  let static_edges =
    List.map
      (fun (e : Deep.lock_edge) -> (e.Deep.le_from, e.Deep.le_to))
      (Deep.lock_edges facts)
    |> List.sort_uniq compare
  in
  let observed = if chaos then observed_edges_chaos () else [] in
  let whole suppress =
    Deep.dead_findings ~suppress facts ~lib:"lib/"
    @ Deep.internal_findings ~suppress facts vals
    @ Deep.proto_op_findings ~suppress facts ~doc:ops_doc (ops ())
    @ Deep.proto_verb_findings ~suppress facts ~doc:verbs_doc
        ~unit_name:"Relation.Replicate" verbs
    @ Deep.proto_err_findings ~suppress facts ~doc:err_doc
        ~unit_name:err_unit
        ~size:(Comerr.Com_err.size Moira.Mr_err.table)
        ()
    @ cross_check_findings ~static:static_edges ~observed
  in
  let findings =
    check ~read:read_file
      ~files:(List.map (fun (v : Deep.fn) -> v.Deep.fn_file) vals)
      ~whole facts
  in
  let unreferenced =
    List.filter_map
      (fun (name, _) ->
        if Deep.refs_to facts name = [] then Some name else None)
      (Deep.err_codes facts ~unit_name:err_unit)
  in
  let entries = Deep.entry_points facts in
  let json =
    Deep.report_json ~findings
      ~info:
        [
          ("functions", string_of_int (Hashtbl.length facts));
          ("entry_points", string_of_int (List.length entries));
          ("static_lock_edges", json_pairs static_edges);
          ("observed_lock_edges", json_pairs observed);
          ("unreferenced_error_codes", json_strings unreferenced);
        ]
  in
  {
    r_findings = findings;
    r_functions = Hashtbl.length facts;
    r_entries = List.length entries;
    r_static_edges = static_edges;
    r_observed_edges = observed;
    r_unreferenced_errs = unreferenced;
    r_json = json;
  }
