(* Deep_moira: the [Deep] engine bound to this repository.

   Knows where dune leaves the [.cmt] files, which opcodes / verbs /
   error tables make up the wire protocol (read off the linked
   libraries themselves, so the model can never drift from the code),
   which PROTOCOL.md sections document them, and how to spin the
   simulated chaos day whose sanitizer-observed lock acquisitions
   cross-check the static lock-order graph.  The driver is
   [bin/moira_lint.ml --deep]; the suppression syntax is [Lint]'s
   [lint: allow <rule> -- <reason>] with the deep rule ids. *)

(* ---------------- .cmt discovery ---------------- *)

let rec cmt_files path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun e -> cmt_files (Filename.concat path e))
  else if Filename.check_suffix path ".cmt" then [ path ]
  else []

let load_tree facts build_dir =
  let files =
    cmt_files (Filename.concat build_dir "lib")
    @ cmt_files (Filename.concat build_dir "bin")
  in
  List.iter (Deep.load_cmt facts) files;
  List.length files

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

let contains_ci hay needle =
  let low = String.lowercase_ascii hay in
  let n = String.lowercase_ascii needle in
  let nh = String.length low and nn = String.length n in
  let rec go i = i + nn <= nh && (String.sub low i nn = n || go (i + 1)) in
  go 0

(* Text of the section whose "## " heading contains [title], up to the
   next "## " heading — so op numbers are only looked up in their own
   tables (error index 16 must not be satisfied by opcode 16's row). *)
let section md title =
  let lines = String.split_on_char '\n' md in
  let rec skip = function
    | [] -> []
    | l :: rest ->
        if String.starts_with ~prefix:"## " l && contains_ci l title then
          take rest [ l ]
        else skip rest
  and take rest acc =
    match rest with
    | [] -> List.rev acc
    | l :: _ when String.starts_with ~prefix:"## " l -> List.rev acc
    | l :: rest -> take rest (l :: acc)
  in
  String.concat "\n" (skip lines)

(* ---------------- suppression (lint: allow) ---------------- *)

type allow_state = {
  als_by_file : (string, Allow.allow list) Hashtbl.t;
  src_prefix : string;
}

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s
  with Sys_error _ -> None

(* Scan every source file the facts mention, eagerly, so stale allows
   in finding-free files are still detected. *)
let scan_allow_state ~src_prefix (facts : Deep.facts) =
  let st = { als_by_file = Hashtbl.create 64; src_prefix } in
  List.iter
    (fun (fn : Deep.fn) ->
      if not (Hashtbl.mem st.als_by_file fn.Deep.fn_file) then
        match read_file (src_prefix ^ fn.Deep.fn_file) with
        | Some src ->
            Hashtbl.replace st.als_by_file fn.Deep.fn_file
              (fst (Allow.scan_allows src))
        | None -> Hashtbl.replace st.als_by_file fn.Deep.fn_file [])
    (Deep.sorted_fns facts);
  st

(* The deep effects map onto the syntactic pass's per-file allowlist:
   a file allowed to read the wall clock is allowed to leak it. *)
let base_rule_of_kind = function
  | "wall-clock" -> Some "wall-clock"
  | "global-random" -> Some "global-random"
  | "unordered-iter" -> Some "unsorted-fold"
  | _ -> None

let suppress_of st : Deep.suppress =
 fun ~rule ~kind ~file ~line ->
  (match base_rule_of_kind kind with
  | Some base -> Allow.file_allowed ~file base
  | None -> false)
  || Allow.file_allowed ~file rule
  ||
  match Hashtbl.find_opt st.als_by_file file with
  | None -> false
  | Some allows -> (
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

(* Stale deep-rule allows, after every check has had its chance to use
   them (the syntactic pass skips these — they are ours to keep honest). *)
let stale_allow_findings st =
  Hashtbl.fold
    (fun file allows acc ->
      List.filter_map
        (fun (a : Allow.allow) ->
          if Allow.is_deep_rule a.Allow.a_rule && not a.Allow.a_used then
            Some
              {
                Deep.f_rule = "unused-allow";
                f_file = file;
                f_line = a.Allow.a_line;
                f_msg =
                  Printf.sprintf "allow %s suppresses nothing" a.Allow.a_rule;
                f_chain = [];
              }
          else None)
        allows
      @ acc)
    st.als_by_file []
  |> List.sort compare

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

let run ?(build_dir = "_build/default") ?(src_prefix = "")
    ?(protocol_md = "PROTOCOL.md") ?(chaos = true) () =
  let facts = Deep.create () in
  ignore (load_tree facts build_dir);
  let st = scan_allow_state ~src_prefix facts in
  let suppress = suppress_of st in
  let md =
    Option.value (read_file (src_prefix ^ protocol_md)) ~default:""
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
  let findings =
    Deep.effect_findings ~suppress facts
    @ Deep.lock_findings ~suppress facts
    @ Deep.proto_op_findings ~suppress facts ~doc:ops_doc (ops ())
    @ Deep.proto_verb_findings ~suppress facts ~doc:verbs_doc
        ~unit_name:"Relation.Replicate" verbs
    @ Deep.proto_err_findings ~suppress facts ~doc:err_doc
        ~unit_name:err_unit
        ~size:(Comerr.Com_err.size Moira.Mr_err.table)
        ()
    @ cross_check_findings ~static:static_edges ~observed
  in
  (* stale allows last: every check above has marked its uses *)
  let findings = findings @ stale_allow_findings st in
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
