(* The Hesiod substrate: BIND file parsing, resolution, reload. *)

let sample =
  {|; comment line
babette.passwd HS UNSPECA "babette:*:6530:101:Harmon C Fowler,,,,:/mit/babette:/bin/csh"
6530.uid HS CNAME babette.passwd
HESIOD.sloc HS UNSPECA KIWI.MIT.EDU
HESIOD.sloc HS UNSPECA SUOMI.MIT.EDU

malformed line that should be skipped
|}

let test_parse () =
  let db = Hesiod.Hes_db.parse sample in
  Alcotest.(check int) "three keys" 3 (Hesiod.Hes_db.size db);
  match Hesiod.Hes_db.lookup db "babette.passwd" with
  | [ Hesiod.Hes_db.Unspeca data ] ->
      Alcotest.(check bool) "payload" true
        (String.length data > 0 && data.[0] = 'b')
  | _ -> Alcotest.fail "lookup"

let test_resolve_direct () =
  let db = Hesiod.Hes_db.parse sample in
  match Hesiod.Hes_db.resolve db ~name:"babette" ~ty:"passwd" with
  | [ data ] ->
      Alcotest.(check bool) "passwd line" true
        (String.sub data 0 7 = "babette")
  | _ -> Alcotest.fail "resolve"

let test_resolve_cname () =
  let db = Hesiod.Hes_db.parse sample in
  match Hesiod.Hes_db.resolve db ~name:"6530" ~ty:"uid" with
  | [ data ] ->
      Alcotest.(check bool) "follows cname" true
        (String.sub data 0 7 = "babette")
  | _ -> Alcotest.fail "cname resolve"

let test_resolve_multiple () =
  let db = Hesiod.Hes_db.parse sample in
  Alcotest.(check (list string)) "two sloc records, in file order"
    [ "KIWI.MIT.EDU"; "SUOMI.MIT.EDU" ]
    (Hesiod.Hes_db.resolve db ~name:"HESIOD" ~ty:"sloc")

let test_resolve_missing () =
  let db = Hesiod.Hes_db.parse sample in
  Alcotest.(check int) "missing" 0
    (List.length (Hesiod.Hes_db.resolve db ~name:"ghost" ~ty:"passwd"))

let test_cname_cycle_bounded () =
  let looped =
    "a.t HS CNAME b.t\nb.t HS CNAME a.t\n"
  in
  let db = Hesiod.Hes_db.parse looped in
  (* must terminate with no data *)
  Alcotest.(check int) "cycle yields nothing" 0
    (List.length (Hesiod.Hes_db.resolve db ~name:"a" ~ty:"t"))

let test_format_roundtrip () =
  let line = Hesiod.Hes_db.format_unspeca ~key:"x.passwd" "a:b c" in
  let db = Hesiod.Hes_db.parse line in
  (match Hesiod.Hes_db.resolve db ~name:"x" ~ty:"passwd" with
  | [ "a:b c" ] -> ()
  | _ -> Alcotest.fail "unspeca roundtrip");
  let line = Hesiod.Hes_db.format_cname ~key:"1.uid" "x.passwd" in
  let db2 = Hesiod.Hes_db.parse (line ^ "\n" ^ Hesiod.Hes_db.format_unspeca ~key:"x.passwd" "d") in
  match Hesiod.Hes_db.resolve db2 ~name:"1" ~ty:"uid" with
  | [ "d" ] -> ()
  | _ -> Alcotest.fail "cname roundtrip"

let test_server_load_and_restart () =
  let engine = Sim.Engine.create () in
  let net = Netsim.Net.create engine in
  let h = Netsim.Net.add_host net "HES" in
  ignore (Netsim.Net.add_host net "CLI");
  let fs = Netsim.Host.fs h in
  Netsim.Vfs.write fs ~path:"/etc/hesiod/passwd.db"
    (Hesiod.Hes_db.format_unspeca ~key:"ann.passwd" "ann:*:1:1:A:/mit/ann:/bin/sh");
  Netsim.Vfs.flush fs;
  let srv = Hesiod.Hes_server.start ~dir:"/etc/hesiod" h in
  Alcotest.(check int) "loaded" 1 (Hesiod.Hes_server.loaded_keys srv);
  (* remote resolution *)
  (match
     Hesiod.Hes_server.resolve net ~src:"CLI" ~server:"HES" ~name:"ann"
       ~ty:"passwd"
   with
  | Ok [ line ] ->
      Alcotest.(check bool) "line" true (String.length line > 3)
  | _ -> Alcotest.fail "remote resolve");
  (* new data appears only after restart *)
  Netsim.Vfs.write fs ~path:"/etc/hesiod/passwd.db"
    (Hesiod.Hes_db.format_unspeca ~key:"ann.passwd" "x"
    ^ "\n"
    ^ Hesiod.Hes_db.format_unspeca ~key:"bob.passwd" "y");
  Netsim.Vfs.flush fs;
  Alcotest.(check int) "stale until restart" 0
    (List.length (Hesiod.Hes_server.resolve_local srv ~name:"bob" ~ty:"passwd"));
  Hesiod.Hes_server.restart srv;
  Alcotest.(check int) "fresh after restart" 1
    (List.length (Hesiod.Hes_server.resolve_local srv ~name:"bob" ~ty:"passwd"));
  Alcotest.(check int) "generation" 2 (Hesiod.Hes_server.generation srv)

let test_server_reload_on_boot () =
  let engine = Sim.Engine.create () in
  let net = Netsim.Net.create engine in
  let h = Netsim.Net.add_host net "HES" in
  let fs = Netsim.Host.fs h in
  Netsim.Vfs.write fs ~path:"/etc/hesiod/uid.db"
    (Hesiod.Hes_db.format_cname ~key:"1.uid" "a.passwd");
  Netsim.Vfs.flush fs;
  let srv = Hesiod.Hes_server.start ~dir:"/etc/hesiod" h in
  Netsim.Host.crash h;
  Netsim.Host.boot h;
  (* one load at start, one at boot *)
  Alcotest.(check int) "reloaded on boot" 2 (Hesiod.Hes_server.generation srv)

let prop_parse_never_raises =
  QCheck.Test.make ~name:"hesiod: parser total on junk" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun s ->
      ignore (Hesiod.Hes_db.parse s);
      true)

(* Line-grain reload: [update (parse old) ~old new] must answer every
   lookup as [parse new] does.  Files draw from a small key pool so keys
   repeat (sloc-like multi-record keys, CNAME chains) among comments,
   blank and malformed lines, tabs, carriage returns and an optional
   final newline. *)
let line_gen =
  let open QCheck.Gen in
  let key = map2 (Printf.sprintf "k%d.%s") (int_range 0 5) (oneofl [ "passwd"; "sloc" ]) in
  frequency
    [
      (6, map2 (fun k d -> Hesiod.Hes_db.format_unspeca ~key:k d) key
            (oneofl [ "a"; "b c"; "d:e"; "" ]));
      (3, map2 (fun k t -> Printf.sprintf "%s HS UNSPECA %s" k t) key
            (oneofl [ "KIWI.MIT.EDU"; "SUOMI.MIT.EDU" ]));
      (3, map2 (fun k t -> Hesiod.Hes_db.format_cname ~key:k t) key key);
      (1, map (fun k -> Printf.sprintf "%s\tHS\tUNSPECA\t\"tab\"" k) key);
      (1, map (fun k -> Hesiod.Hes_db.format_unspeca ~key:k "cr" ^ "\r") key);
      (1, oneofl [ "; comment"; ""; "   "; "malformed line here"; "x HS" ]);
    ]

let file_gen =
  QCheck.Gen.(pair (list_size (int_range 0 30) line_gen) bool)

let render (lines, final_nl) =
  String.concat "\n" lines ^ if final_nl && lines <> [] then "\n" else ""

(* One edit, from file to file: lines [i, j) give way to [ins] (insert,
   delete, replace, prepend or append anywhere), the file empties, lines
   are prepended, or a new file replaces it.  The property may also
   overwrite one byte of the last file, which moves line boundaries. *)
let range_edit_gen =
  let open QCheck.Gen in
  map3
    (fun a b (ins, nl) (lines, final_nl) ->
      let n = List.length lines in
      let a = a mod (n + 1) and b = b mod (n + 1) in
      let i = min a b and j = max a b in
      ( List.filteri (fun k _ -> k < i) lines
        @ ins
        @ List.filteri (fun k _ -> k >= j) lines,
        if j = n then nl else final_nl ))
    nat nat
    (pair (list_size (int_range 0 4) line_gen) bool)

let edit_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, range_edit_gen);
      (1, return (fun (_, final_nl) -> ([], final_nl)));
      ( 1,
        map2
          (fun ins nl (lines, _) -> (ins @ lines, nl))
          (list_size (int_range 1 3) line_gen) bool );
      ( 1,
        map (fun f _ -> f) file_gen );
    ]

(* One reload's worth of edits: a single edit, or 2-6 independent range
   edits to one file (scattered, as a cron interval's are). *)
let step_gen =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun e -> [ e ]) edit_gen);
      (2, list_size (int_range 2 6) range_edit_gen);
    ]

let apply_step f step = List.fold_left (fun f e -> e f) f step

let poke_gen =
  QCheck.Gen.(pair nat (oneofl [ '\n'; ' '; '"'; 'x'; '\t'; ';' ]))

let poke (pos, c) s =
  if s = "" then s
  else String.mapi (fun i x -> if i = pos mod String.length s then c else x) s

let words s =
  String.split_on_char '\n' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.concat_map (String.split_on_char '\t')
  |> List.map String.trim

let same_db ~files a b =
  Hesiod.Hes_db.size a = Hesiod.Hes_db.size b
  && List.for_all
       (fun k -> Hesiod.Hes_db.lookup a k = Hesiod.Hes_db.lookup b k)
       (List.concat_map words files)

(* Each text reloaded from the previous one's db must answer as a parse
   of it does. *)
let reloads_equal_parse texts =
  let rec check db old = function
    | [] -> true
    | c :: rest ->
        let db' = Hesiod.Hes_db.update db ~old c in
        same_db ~files:[ old; c ] db' (Hesiod.Hes_db.parse c)
        && check db' c rest
  in
  let first = List.hd texts in
  check (Hesiod.Hes_db.parse first) first (List.tl texts)

let prop_update_equals_parse =
  QCheck.Test.make ~name:"hesiod: update (parse old) ~old new = parse new"
    ~count:1000
    QCheck.(
      make
        Gen.(
          triple file_gen
            (list_size (int_range 1 3) step_gen)
            (opt poke_gen)))
    (fun (f0, steps, poke_at) ->
      (* a chain of steps, each reload updating the previous one's db *)
      let files =
        List.rev (List.fold_left (fun acc st -> apply_step (List.hd acc) st :: acc) [ f0 ] steps)
      in
      let texts = List.map render files in
      let texts =
        match poke_at with
        | Some pc -> texts @ [ poke pc (List.nth texts (List.length texts - 1)) ]
        | None -> texts
      in
      reloads_equal_parse texts)

(* Moira's generators emit sorted files, which the reload's merge walk
   follows edit by edit; any other order must give the same answers.
   A sorted file, 2-6 edits, then those lines shuffled and sorted
   again: each reload runs from a sorted or a shuffled file to the
   other order. *)
let shuffle keys lines =
  let n = Array.length keys in
  List.mapi (fun i l -> (keys.(i mod n), i, l)) lines
  |> List.sort compare
  |> List.map (fun (_, _, l) -> l)

let prop_update_equals_parse_shuffled =
  QCheck.Test.make
    ~name:"hesiod: shuffled files: update (parse old) ~old new = parse new"
    ~count:500
    QCheck.(
      make
        Gen.(
          quad file_gen
            (list_size (int_range 2 6) range_edit_gen)
            (array_size (int_range 1 8) nat)
            bool))
    (fun (f0, edits, keys, final_nl) ->
      let sorted (lines, _) = (List.sort compare lines, final_nl) in
      let f0 = sorted f0 in
      let f1 = sorted (apply_step f0 edits) in
      let mixed = (shuffle keys (fst f1), final_nl) in
      reloads_equal_parse (List.map render [ f0; f1; mixed; f1 ]))

let write_and_restart srv fs contents =
  Netsim.Vfs.write fs ~path:"/etc/hesiod/passwd.db" contents;
  Netsim.Vfs.flush fs;
  Hesiod.Hes_server.restart srv

let passwd_line i shell =
  Hesiod.Hes_db.format_unspeca
    ~key:(Printf.sprintf "user%04d.passwd" i)
    (Printf.sprintf "user%04d:*:%d:101:User %d,,,,:/mit/user%04d:%s" i
       (1000 + i) i i shell)

let passwd_file n edit =
  String.concat ""
    (List.init n (fun i -> passwd_line i (edit i) ^ "\n"))

(* Restart after an edit, then ask over the network: the edited key
   answers with its new record, an untouched one with its old. *)
let test_server_restart_after_edit () =
  let engine = Sim.Engine.create () in
  let net = Netsim.Net.create engine in
  let h = Netsim.Net.add_host net "HES" in
  ignore (Netsim.Net.add_host net "CLI");
  let fs = Netsim.Host.fs h in
  let srv = Hesiod.Hes_server.start ~dir:"/etc/hesiod" h in
  write_and_restart srv fs (passwd_file 50 (fun _ -> "/bin/csh"));
  ignore (Hesiod.Hes_server.resolve_local srv ~name:"user0007" ~ty:"passwd");
  write_and_restart srv fs
    (passwd_file 50 (fun i -> if i = 7 then "/bin/tcsh" else "/bin/csh"));
  let remote name =
    match Hesiod.Hes_server.resolve net ~src:"CLI" ~server:"HES" ~name ~ty:"passwd" with
    | Ok [ line ] -> line
    | _ -> Alcotest.fail ("remote resolve " ^ name)
  in
  Alcotest.(check string) "edited" "user0007:*:1007:101:User 7,,,,:/mit/user0007:/bin/tcsh"
    (remote "user0007");
  Alcotest.(check string) "untouched" "user0008:*:1008:101:User 8,,,,:/mit/user0008:/bin/csh"
    (remote "user0008");
  Alcotest.(check int) "keys" 50 (Hesiod.Hes_server.loaded_keys srv)

(* The reload's parse cost in bytes follows the changed lines, wherever
   they lie, not the file. *)
let test_parsed_bytes_follow_changed_lines () =
  let engine = Sim.Engine.create () in
  let net = Netsim.Net.create engine in
  let h = Netsim.Net.add_host net "HES" in
  let fs = Netsim.Host.fs h in
  let srv = Hesiod.Hes_server.start ~dir:"/etc/hesiod" h in
  let n = 5000 in
  let base = passwd_file n (fun _ -> "/bin/csh") in
  write_and_restart srv fs base;
  let parsed0 = Hesiod.Hes_server.parsed_bytes srv in
  Alcotest.(check int) "first load parses the file" (String.length base) parsed0;
  let line_bytes i shells =
    List.fold_left (fun acc sh -> acc + String.length (passwd_line i sh) + 1) 0 shells
  in
  let one = passwd_file n (fun i -> if i = 2500 then "/bin/tcsh" else "/bin/csh") in
  write_and_restart srv fs one;
  let parsed1 = Hesiod.Hes_server.parsed_bytes srv in
  Alcotest.(check int) "one edited line: its old and new bytes"
    (line_bytes 2500 [ "/bin/csh"; "/bin/tcsh" ])
    (parsed1 - parsed0);
  let ends =
    passwd_file n (fun i -> if i = 0 || i = 2500 || i = n - 1 then "/bin/zsh" else "/bin/csh")
  in
  write_and_restart srv fs ends;
  let parsed2 = Hesiod.Hes_server.parsed_bytes srv in
  Alcotest.(check int) "first, middle and last lines: their old and new bytes"
    (line_bytes 0 [ "/bin/csh"; "/bin/zsh" ]
    + line_bytes 2500 [ "/bin/tcsh"; "/bin/zsh" ]
    + line_bytes (n - 1) [ "/bin/csh"; "/bin/zsh" ])
    (parsed2 - parsed1);
  write_and_restart srv fs ends;
  Alcotest.(check int) "unchanged restart parses nothing" parsed2
    (Hesiod.Hes_server.parsed_bytes srv);
  (* a catch-up cycle: 300 edits spread across the file *)
  let edited i = i mod 16 = 7 && i < 4800 in
  let caught_up =
    passwd_file n (fun i ->
        if edited i then "/bin/bash"
        else if i = 0 || i = 2500 || i = n - 1 then "/bin/zsh"
        else "/bin/csh")
  in
  write_and_restart srv fs caught_up;
  let parsed3 = Hesiod.Hes_server.parsed_bytes srv in
  let edits = List.filter edited (List.init n Fun.id) in
  Alcotest.(check int) "300 edits" 300 (List.length edits);
  Alcotest.(check int) "scattered edits: their old and new bytes"
    (List.fold_left (fun acc i -> acc + line_bytes i [ "/bin/csh"; "/bin/bash" ]) 0 edits)
    (parsed3 - parsed2);
  Alcotest.(check (list string)) "an edited line answers"
    [ "user0007:*:1007:101:User 7,,,,:/mit/user0007:/bin/bash" ]
    (Hesiod.Hes_server.resolve_local srv ~name:"user0007" ~ty:"passwd");
  (* the same lines in another order: at most a compare and a parse *)
  let lines = String.split_on_char '\n' caught_up |> List.filter (( <> ) "") in
  let shuffled =
    String.concat ""
      (List.init n (fun i -> List.nth lines (i * 7919 mod n) ^ "\n"))
  in
  write_and_restart srv fs shuffled;
  Alcotest.(check bool) "shuffled rewrite: at most old and new bytes" true
    (Hesiod.Hes_server.parsed_bytes srv - parsed3
    <= String.length caught_up + String.length shuffled);
  Alcotest.(check int) "keys" n (Hesiod.Hes_server.loaded_keys srv);
  Alcotest.(check (list string)) "an edited line still answers"
    [ "user0007:*:1007:101:User 7,,,,:/mit/user0007:/bin/bash" ]
    (Hesiod.Hes_server.resolve_local srv ~name:"user0007" ~ty:"passwd")

let suite =
  [
    Alcotest.test_case "parse" `Quick test_parse;
    Alcotest.test_case "resolve direct" `Quick test_resolve_direct;
    Alcotest.test_case "resolve cname" `Quick test_resolve_cname;
    Alcotest.test_case "resolve multiple" `Quick test_resolve_multiple;
    Alcotest.test_case "resolve missing" `Quick test_resolve_missing;
    Alcotest.test_case "cname cycles bounded" `Quick test_cname_cycle_bounded;
    Alcotest.test_case "format roundtrip" `Quick test_format_roundtrip;
    Alcotest.test_case "server load/restart" `Quick
      test_server_load_and_restart;
    Alcotest.test_case "server reload on boot" `Quick
      test_server_reload_on_boot;
    QCheck_alcotest.to_alcotest prop_parse_never_raises;
    QCheck_alcotest.to_alcotest prop_update_equals_parse;
    QCheck_alcotest.to_alcotest prop_update_equals_parse_shuffled;
    Alcotest.test_case "server restart after edit" `Quick
      test_server_restart_after_edit;
    Alcotest.test_case "parsed bytes follow changed lines" `Quick
      test_parsed_bytes_follow_changed_lines;
  ]
