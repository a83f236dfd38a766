(* The interprocedural pass ([Lint.Deep] / [Lint.Deep_moira]): effect
   propagation with call chains, call-graph resolution, dead exports,
   the static lock-order graph and its agreement with the runtime
   sanitizer over a simulated chaos day, and the protocol
   exhaustiveness checks.  Source fixtures are typechecked in-process
   ([Deep.load_source]), so they only use the stdlib and unix; graph
   fixtures are hand-built fact records. *)

module Deep = Lint.Deep
module Deep_moira = Lint.Deep_moira

let load name src =
  let facts = Deep.create () in
  Deep.load_source facts ~file:(name ^ ".ml") src;
  facts

let rules fs = List.map (fun f -> f.Deep.f_rule) fs
let lines fs = List.map (fun f -> f.Deep.f_line) fs

let has_msg fs sub =
  List.exists
    (fun f ->
      let rec go i =
        i + String.length sub <= String.length f.Deep.f_msg
        && (String.sub f.Deep.f_msg i (String.length sub) = sub || go (i + 1))
      in
      go 0)
    fs

(* ---- deep-effect ---- *)

let test_effect_chain () =
  let facts =
    load "fix_eff"
      "let now () = Sys.time ()\n\
       let middle () = now ()\n\
       let top () = middle ()\n"
  in
  Alcotest.(check (list string))
    "top is the only entry point" [ "Fix_eff.top" ]
    (Deep.entry_points facts);
  Alcotest.(check (list string))
    "wall-clock propagates to top" [ "wall-clock" ]
    (List.map Deep.effect_name (Deep.transitive facts "Fix_eff.top"));
  match Deep.effect_findings facts with
  | [ f ] ->
      Alcotest.(check string) "rule" "deep-effect" f.Deep.f_rule;
      Alcotest.(check int) "located at the Sys.time site" 1 f.Deep.f_line;
      Alcotest.(check (list string))
        "full call chain from the entry"
        [ "Fix_eff.top"; "Fix_eff.middle"; "Fix_eff.now" ]
        f.Deep.f_chain
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_effect_kinds () =
  let facts =
    load "fix_kinds"
      "let roll () = Random.int 6\n\
       let shout s = print_string s\n\
       let main () = shout (string_of_int (roll ()))\n"
  in
  Alcotest.(check (list string))
    "random and io both propagate" [ "global-random"; "io" ]
    (List.map Deep.effect_name (Deep.transitive facts "Fix_kinds.main"));
  (* io is informational: only the random reach is a finding *)
  Alcotest.(check (list string))
    "one deep-effect finding" [ "deep-effect" ]
    (rules (Deep.effect_findings facts))

(* The global Random reads, one per definition so each is its own site. *)
let test_global_random () =
  let facts =
    load "fix_random"
      "let seed () = Random.self_init ()\n\
       let roll () = Random.int 5\n\
       let seeded s = Random.State.int s 6\n"
  in
  let fs = Deep.effect_findings facts in
  (* a Random.State threads its own seeded state: only the global
     Random reads are findings *)
  Alcotest.(check (list int)) "self_init and Random.int" [ 1; 2 ] (lines fs);
  Alcotest.(check bool) "as global-random" true (has_msg fs "global-random")

let test_unordered_iter () =
  let facts =
    load "fix_iter"
      "let keys h = Hashtbl.fold (fun k _ a -> k :: a) h []\n\
       let keys_sorted h =\n\
      \  List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) h [])\n\
       let by_name l = List.sort compare l\n\
       let keys_via_helper h = by_name (Hashtbl.fold (fun k _ a -> k :: a) h [])\n\
       let each h f = Hashtbl.iter f h\n"
  in
  let fs = Deep.effect_findings facts in
  (* the bare fold leaks hash order; the opaque-function wrapper is
     conservatively flagged; both sorted variants (direct, and via the
     one-call-away helper) are discharged *)
  Alcotest.(check (list int)) "bare fold and opaque wrapper" [ 1; 6 ] (lines fs);
  Alcotest.(check bool) "kind is unordered-iter" true
    (has_msg fs "unordered-iter")

(* A fold only leaks order when what it accumulates is order-sensitive:
   a list fed to String.concat is, a sum is not. *)
let test_unsorted_fold () =
  let facts =
    load "fix_fold"
      "let names h = String.concat \",\" (Hashtbl.fold (fun k _ a -> k :: a) h [])\n\
       let sorted h =\n\
      \  String.concat \",\"\n\
      \    (List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) h []))\n\
       let total h = Hashtbl.fold (fun _ v a -> a + v) h 0\n"
  in
  let fs = Deep.effect_findings facts in
  Alcotest.(check (list int)) "fold into concat flagged" [ 1 ] (lines fs);
  Alcotest.(check bool) "as unordered-iter" true (has_msg fs "unordered-iter")

(* The direct sources, one per definition so each is its own site. *)
let test_wall_clock () =
  let src =
    "let a () = Unix.time ()\n\
     let b () = Sys.time ()\n\
     let c () = Unix.gettimeofday ()\n\
     let d () = (Gc.quick_stat ()).Gc.minor_words\n\
     let main () = a () +. b () +. c () +. d ()\n"
  in
  let facts = load "fix_clock" src in
  let fs = Deep.effect_findings facts in
  Alcotest.(check (list int)) "every read flagged" [ 1; 2; 3; 4 ] (lines fs);
  Alcotest.(check bool) "as wall-clock" true (has_msg fs "wall-clock");
  (* the per-file allowlist applies through the driver's suppression:
     bench timing is legitimate, the same code under lib/ is not *)
  let findings_as file =
    let facts = Deep.create () in
    Deep.load_source facts ~file src;
    let suppress = Deep_moira.suppress facts in
    List.length (Deep.effect_findings ~suppress facts)
  in
  Alcotest.(check int) "bench/main.ml allowlisted" 0
    (findings_as "bench/main.ml");
  Alcotest.(check int) "lib/ is not" 4 (findings_as "lib/clock.ml")

let test_effect_suppression () =
  let facts =
    load "fix_sup" "let now () = Sys.time ()\nlet top () = now ()\n"
  in
  let suppress ~rule ~kind ~file:_ ~line =
    rule = "deep-effect" && kind = "wall-clock" && line = 1
  in
  Alcotest.(check int) "suppressed at the site" 0
    (List.length (Deep.effect_findings ~suppress facts))

(* ---- call-graph resolution ---- *)

(* The one finding's call chain, for fixtures with one clock read. *)
let chain_of name src =
  match Deep.effect_findings (load name src) with
  | [ f ] -> f.Deep.f_chain
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let entries_of name src = Deep.entry_points (load name src)

let test_nested_siblings () =
  Alcotest.(check (list string))
    "a sibling resolves inside its module first"
    [ "Nested.top"; "Nested.M.mid"; "Nested.M.now" ]
    (chain_of "nested"
       "module M = struct\n\
       \  let now () = Sys.time ()\n\
       \  let mid () = now ()\n\
        end\n\
        let top () = M.mid ()\n")

let test_module_alias () =
  Alcotest.(check (list string))
    "A.now is M.now" [ "Alias.top"; "Alias.M.now" ]
    (chain_of "alias"
       "module M = struct let now () = Sys.time () end\n\
        module A = M\n\
        let top () = A.now ()\n")

let test_local_variable () =
  Alcotest.(check (list string))
    "a parameter named now is not the toplevel now"
    [ "Local.now"; "Local.top" ]
    (entries_of "local" "let now () = Sys.time ()\nlet top now = now ()\n")

let test_annotated_binding () =
  Alcotest.(check (list string))
    "a typed binding is named" [ "Annotated.top"; "Annotated.now" ]
    (chain_of "annotated"
       "let now : unit -> float = fun () -> Sys.time ()\n\
        let top () = now ()\n")

(* Dune reaches a library's modules through its alias module
   ([Lint__.Allow]) and an executable's through [Dune__exe]; both must
   name the unit the way its own definitions are named. *)
let test_dune_alias_paths () =
  let facts =
    load "mangled"
      "module Lint__ = struct module Allow = struct let rules = [] end end\n\
       module Dune__exe = struct module Fix = struct let f () = () end end\n\
       let top () = ignore Lint__.Allow.rules; Dune__exe.Fix.f ()\n"
  in
  List.iter
    (fun (name, unit_name) ->
      Deep.add_fn facts (Deep.make_fn ~name ~unit_name ~file:"x.ml" ~line:1))
    [ ("Lint.Allow.rules", "Lint.Allow"); ("Fix.f", "Fix") ];
  Alcotest.(check (list string))
    "both resolve to the unit's definitions" [ "Fix.f"; "Lint.Allow.rules" ]
    (Deep.callees facts (Hashtbl.find facts "Mangled.top"))

let test_binding_operators () =
  Alcotest.(check (list string))
    "let* is used by top, not an entry" [ "Letop.top" ]
    (entries_of "letop"
       "let ( let* ) r f = Option.bind r f\n\
        let top x = let* y = x in Some (y + 1)\n")

let test_functor_argument () =
  let facts =
    load "functor_arg"
      "module Key = struct type t = int let compare = Int.compare end\n\
       module KMap = Map.Make (Key)\n\
       let top () = KMap.empty\n"
  in
  Alcotest.(check (option (list string)))
    "the instance uses its argument's values"
    (Some
       [ "Functor_arg.top"; "Functor_arg.KMap"; "Functor_arg.Key.compare" ])
    (Deep.chain facts ~src:"Functor_arg.top" ~dst:"Functor_arg.Key.compare")

(* ---- dead exports ---- *)

let test_dead_export () =
  let facts = Deep.create () in
  Deep.load_source facts ~file:"lib/fix_dead.ml"
    "let used () = 1\n\
     let helper () = 2\n\
     let dead () = helper ()\n\
     let code i = i\n\
     let mr_kept = code 3\n\
     let registered () = 4\n\
     let () = ignore (registered ())\n";
  let main =
    Deep.make_fn ~name:"Main.main" ~unit_name:"Main" ~file:"bin/main.ml"
      ~line:1
  in
  main.Deep.fn_refs <- [ ("Fix_dead.used", 1) ];
  Deep.add_fn facts main;
  let fs = Deep.dead_findings facts ~lib:"lib/" in
  (* helper is only reached from dead code; an error-table binding and
     a toplevel effect keep what they use *)
  Alcotest.(check (list string)) "rule" [ "dead-export"; "dead-export" ]
    (rules fs);
  Alcotest.(check (list int)) "helper and dead" [ 2; 3 ] (lines fs);
  let suppress ~rule ~kind:_ ~file:_ ~line = rule = "dead-export" && line = 3 in
  Alcotest.(check int) "a kept definition keeps its callees" 0
    (List.length (Deep.dead_findings ~suppress facts ~lib:"lib/"))

(* ---- lock order ---- *)

let lock_prelude =
  "module Lock = struct\n\
  \  let acquire ~key ~owner = ignore key; ignore owner; true\n\
   end\n"

let test_lock_edges () =
  let facts =
    load "fix_lock"
      (lock_prelude
      ^ "let host_phase () =\n\
        \  let a = Lock.acquire ~key:\"service:z\" ~owner:\"dcm\" in\n\
        \  let b = Lock.acquire ~key:(\"host:\" ^ \"z/w\") ~owner:\"dcm\" in\n\
        \  a && b\n")
  in
  Alcotest.(check (list (pair string string)))
    "service nests over host"
    [ ("service", "host") ]
    (List.map
       (fun e -> (e.Deep.le_from, e.Deep.le_to))
       (Deep.lock_edges facts));
  Alcotest.(check int) "no findings on a clean order" 0
    (List.length (Deep.lock_findings facts))

let test_lock_cycle () =
  let facts =
    load "fix_cycle"
      (lock_prelude
      ^ "let ab () =\n\
        \  let a = Lock.acquire ~key:\"alpha:1\" ~owner:\"x\" in\n\
        \  let b = Lock.acquire ~key:\"beta:1\" ~owner:\"x\" in\n\
        \  a && b\n\
         let ba () =\n\
        \  let b = Lock.acquire ~key:\"beta:2\" ~owner:\"x\" in\n\
        \  let a = Lock.acquire ~key:\"alpha:2\" ~owner:\"x\" in\n\
        \  a && b\n")
  in
  let fs = Deep.lock_findings facts in
  Alcotest.(check (list string)) "one cycle finding" [ "lock-order" ] (rules fs);
  Alcotest.(check bool) "names the cycle" true (has_msg fs "cycle");
  (* the evidence chain carries both offending acquisition sites *)
  match fs with
  | [ f ] ->
      Alcotest.(check int) "two evidence edges" 2 (List.length f.Deep.f_chain)
  | _ -> Alcotest.fail "expected exactly one finding"

let test_lock_opaque_key () =
  let facts =
    load "fix_opaque"
      (lock_prelude ^ "let f k = Lock.acquire ~key:k ~owner:\"o\"\n")
  in
  let fs = Deep.lock_findings facts in
  Alcotest.(check (list string)) "opaque key flagged" [ "lock-order" ]
    (rules fs);
  Alcotest.(check bool) "says why" true (has_msg fs "cannot classify")

(* The acceptance criterion: every lock edge the runtime sanitizer
   observes during a simulated chaos day must be in the static graph.
   The fixture graph mirrors [Dcm.Manager.host_phase]'s nesting; the
   observed side is the real testbed with the sanitizer installed. *)
let test_sanitizer_agreement () =
  let facts =
    load "fix_agree"
      (lock_prelude
      ^ "let host_phase () =\n\
        \  let a = Lock.acquire ~key:\"service:z\" ~owner:\"dcm\" in\n\
        \  let b = Lock.acquire ~key:\"host:z/w\" ~owner:\"dcm\" in\n\
        \  a && b\n")
  in
  let static =
    List.map (fun e -> (e.Deep.le_from, e.Deep.le_to)) (Deep.lock_edges facts)
  in
  let observed = Deep_moira.observed_edges_chaos () in
  Alcotest.(check (list (pair string string)))
    "chaos day exercises the service->host nesting"
    [ ("service", "host") ]
    observed;
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "observed edge %s -> %s is in the static graph" a b)
        true
        (List.mem (a, b) static))
    observed

(* ---- protocol exhaustiveness ---- *)

let toy_op facts ~refs =
  let mk name line = Deep.make_fn ~name ~unit_name:"Toy" ~file:"toy.ml" ~line in
  Deep.add_fn facts (mk "Toy.op_ping" 1);
  List.iteri
    (fun i name ->
      let fn = mk name (10 + i) in
      fn.Deep.fn_refs <- [ ("Toy.op_ping", 10 + i) ];
      Deep.add_fn facts fn)
    refs

let test_proto_ops () =
  let facts = Deep.create () in
  toy_op facts ~refs:[ "Toy.send"; "Toy.handle" ];
  Alcotest.(check int) "sender + arm + doc row: clean" 0
    (List.length
       (Deep.proto_op_findings facts ~doc:"| 7 | PING | — |"
          [ ("Toy.op_ping", 7) ]));
  let facts = Deep.create () in
  toy_op facts ~refs:[ "Toy.send" ];
  let fs =
    Deep.proto_op_findings facts ~doc:"| 9 | OTHER |" [ ("Toy.op_ping", 7) ]
  in
  (* one missing dispatch arm, one missing doc row *)
  Alcotest.(check (list string))
    "arm and doc both flagged"
    [ "proto-exhaustive"; "proto-exhaustive" ]
    (rules fs);
  Alcotest.(check bool) "counts the refs" true (has_msg fs "1 definition(s)");
  Alcotest.(check bool) "doc row missing" true (has_msg fs "no PROTOCOL.md")

(* String verbs in match-arm patterns count as uses — the handler side
   of a dispatch is a pattern, not an expression. *)
let test_verbs_in_patterns () =
  let facts =
    load "fix_verbs"
      "let send ch = ch \"PING\"\n\
       let handle = function \"PING\" -> 0 | _ -> 1\n"
  in
  Alcotest.(check int) "sender + pattern arm + doc row: clean" 0
    (List.length
       (Deep.proto_verb_findings facts ~doc:"| PING | — |"
          ~unit_name:"Fix_verbs" [ "PING" ]));
  let fs =
    Deep.proto_verb_findings facts ~doc:"" ~unit_name:"Fix_verbs" [ "NOPE" ]
  in
  Alcotest.(check bool) "unknown verb flagged" true (List.length fs >= 1)

let test_err_codes () =
  let toy ~idxs =
    let facts = Deep.create () in
    List.iteri
      (fun i (name, idx) ->
        let fn =
          Deep.make_fn ~name ~unit_name:"Toy" ~file:"toy.ml" ~line:(i + 1)
        in
        fn.Deep.fn_code_idx <- Some idx;
        Deep.add_fn facts fn)
      idxs;
    facts
  in
  let facts = toy ~idxs:[ ("Toy.mr_a", 0); ("Toy.mr_b", 1) ] in
  Alcotest.(check int) "complete table: clean" 0
    (List.length
       (Deep.proto_err_findings facts ~doc:"| 0 | A |\n| 1 | B |"
          ~unit_name:"Toy" ~size:2 ()));
  let facts = toy ~idxs:[ ("Toy.mr_a", 0); ("Toy.mr_b", 0); ("Toy.mr_c", 5) ] in
  let fs =
    Deep.proto_err_findings facts ~doc:"| 0 | A |" ~unit_name:"Toy" ~size:2 ()
  in
  Alcotest.(check bool) "duplicate index" true (has_msg fs "more than once");
  Alcotest.(check bool) "out of range" true (has_msg fs "out of range");
  Alcotest.(check bool) "gap (index 1 unnamed)" true
    (has_msg fs "index 1 of Toy");
  Alcotest.(check bool) "doc row missing for 5" true
    (has_msg fs "no PROTOCOL.md")

(* ---- report plumbing ---- *)

let test_json () =
  let f =
    {
      Deep.f_rule = "deep-effect";
      f_file = "a.ml";
      f_line = 3;
      f_msg = "quote \" and backslash \\";
      f_chain = [ "A.f"; "A.g" ];
    }
  in
  let json = Deep.report_json ~findings:[ f ] ~info:[ ("functions", "2") ] in
  Alcotest.(check bool) "escapes quotes" true
    (String.length json > 0
    && Deep.doc_has_cell "| x |" "x" (* keep doc_has_cell exercised *)
    &&
    let sub = "\\\"" in
    let rec go i =
      i + String.length sub <= String.length json
      && (String.sub json i (String.length sub) = sub || go (i + 1))
    in
    go 0)

let suite =
  [
    Alcotest.test_case "effect chain" `Quick test_effect_chain;
    Alcotest.test_case "effect kinds" `Quick test_effect_kinds;
    Alcotest.test_case "unordered iter + sort discharge" `Quick
      test_unordered_iter;
    Alcotest.test_case "global-random" `Quick test_global_random;
    Alcotest.test_case "unsorted-fold" `Quick test_unsorted_fold;
    Alcotest.test_case "wall-clock" `Quick test_wall_clock;
    Alcotest.test_case "effect suppression" `Quick test_effect_suppression;
    Alcotest.test_case "nested-module siblings" `Quick test_nested_siblings;
    Alcotest.test_case "local module alias" `Quick test_module_alias;
    Alcotest.test_case "local variable" `Quick test_local_variable;
    Alcotest.test_case "annotated binding" `Quick test_annotated_binding;
    Alcotest.test_case "dune alias-module paths" `Quick test_dune_alias_paths;
    Alcotest.test_case "binding operators" `Quick test_binding_operators;
    Alcotest.test_case "functor argument" `Quick test_functor_argument;
    Alcotest.test_case "dead export" `Quick test_dead_export;
    Alcotest.test_case "lock edges" `Quick test_lock_edges;
    Alcotest.test_case "lock cycle" `Quick test_lock_cycle;
    Alcotest.test_case "opaque lock key" `Quick test_lock_opaque_key;
    Alcotest.test_case "sanitizer agreement (chaos day)" `Quick
      test_sanitizer_agreement;
    Alcotest.test_case "proto opcodes" `Quick test_proto_ops;
    Alcotest.test_case "verbs in patterns" `Quick test_verbs_in_patterns;
    Alcotest.test_case "error codes" `Quick test_err_codes;
    Alcotest.test_case "json report" `Quick test_json;
  ]
