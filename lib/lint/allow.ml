(* The rule catalogue, the per-file allowlist, and the [lint: allow]
   annotation scanner.  Lives below [Deep] and [Deep_moira] so both can
   name them. *)

let rules =
  [
    ("obj-magic", "Obj.magic");
    ("swallow-exn", "try ... with _ -> discards the exception");
    ("lock-protect", "Lock.acquire without Fun.protect in the definition");
    ("schema-ref", "table/column literal unknown to Schema_def");
    ("printf-in-lib", "stdout printing inside lib/ (route through Obs.log)");
    ("deep-effect", "transitive wall-clock/random/unordered-iter reach");
    ("lock-order", "static lock-order violation (cycle or opaque key)");
    ("proto-exhaustive", "opcode/error code without arm or doc row");
    ("dead-export", "lib/ definition nothing outside lib/ reaches");
    ("internal-export", "lib/ interface value only its own unit names");
    ("bad-allow", "malformed lint: allow annotation");
    ("unused-allow", "lint: allow annotation that suppresses nothing");
  ]

let rule_known r = List.mem_assoc r rules

let find_sub ~start hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go start

let contains_sub hay needle =
  match find_sub ~start:0 hay needle with Some _ -> true | None -> false

(* Per-file allowlist, keyed on the deep effect kind, for uses that are
   legitimate across a whole file (real-time and memory measurement).
   Matched by path suffix so the linter works from any working
   directory. *)
let file_allowlist =
  [
    ("bench/main.ml", "wall-clock");
    ("bin/athena_sim.ml", "wall-clock");
    ("perfbench/bench.ml", "wall-clock");
  ]

let file_allowed ~file kind =
  List.exists
    (fun (suffix, k) -> k = kind && Filename.check_suffix file suffix)
    file_allowlist

(* ---------------- allow annotations ---------------- *)

type allow = {
  a_line : int;
  a_rule : string;
  a_solo : bool;  (* the line holds nothing but the comment *)
  mutable a_used : bool;
}

(* The annotation marker: an open-comment immediately followed by the
   keyword.  Built by concatenation so this file's own string literals
   never contain the marker verbatim. *)
let marker = "(*" ^ " lint: allow"

(* Parse one source line's allow comment.
   Returns [Ok allow] / [Error msg] / nothing. *)
let parse_allow ~lineno line =
  match find_sub ~start:0 line marker with
  | None -> None
  | Some i ->
      let rest =
        String.sub line
          (i + String.length marker)
          (String.length line - i - String.length marker)
      in
      let rest = String.trim rest in
      let rule, after =
        match String.index_opt rest ' ' with
        | None ->
            ( (match find_sub ~start:0 rest "*)" with
              | Some j -> String.trim (String.sub rest 0 j)
              | None -> rest),
              "" )
        | Some j ->
            ( String.sub rest 0 j,
              String.sub rest (j + 1) (String.length rest - j - 1) )
      in
      let reason =
        (* up to the comment close, minus the separator *)
        let upto =
          match find_sub ~start:0 after "*)" with
          | Some j -> String.sub after 0 j
          | None -> after
        in
        let upto = String.trim upto in
        let strip_prefix p s =
          if String.length s >= String.length p
             && String.sub s 0 (String.length p) = p
          then Some (String.trim (String.sub s (String.length p)
                                    (String.length s - String.length p)))
          else None
        in
        match strip_prefix "\xe2\x80\x94" upto with
        | Some r -> Some r (* em dash *)
        | None -> (
            match strip_prefix "--" upto with
            | Some r -> Some r
            | None -> None)
      in
      let solo = String.trim (String.sub line 0 i) = "" in
      if not (rule_known rule) then
        Some (Error (Printf.sprintf "unknown rule %S in lint: allow" rule))
      else begin
        match reason with
        | Some r when r <> "" ->
            Some (Ok { a_line = lineno; a_rule = rule; a_solo = solo;
                       a_used = false })
        | _ ->
            Some
              (Error
                 (Printf.sprintf
                    "lint: allow %s needs a reason (\"-- why\")" rule))
      end

let scan_allows source =
  let allows = ref [] and bad = ref [] in
  let lineno = ref 0 in
  List.iter
    (fun line ->
      incr lineno;
      match parse_allow ~lineno:!lineno line with
      | None -> ()
      | Some (Ok a) -> allows := a :: !allows
      | Some (Error msg) -> bad := (!lineno, msg) :: !bad)
    (String.split_on_char '\n' source);
  (List.rev !allows, List.rev !bad)
