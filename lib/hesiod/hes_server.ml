let db_files =
  [
    "cluster.db"; "filsys.db"; "gid.db"; "group.db"; "grplist.db";
    "passwd.db"; "pobox.db"; "printcap.db"; "service.db"; "sloc.db";
    "uid.db";
  ]

(* A restart snapshots each file's contents (cheap: the simulated
   filesystem hands strings back by reference) and defers parsing to
   the first lookup.  That lookup brings each file's parsed form up to
   date from the contents it last parsed with [Hes_db.update], which
   parses only the lines that differ: the steady-state cost of Moira's
   install-script restart is proportional to the changed lines, not to
   the changed files.  One edited passwd.db line re-parses that line's
   old and new bytes, not the whole file, and a cycle's scattered edits
   re-parse just their lines ([parsed_bytes] counts them). *)
type t = {
  host : Netsim.Host.t;
  dir : string;
  mutable pending : (string * string) list;  (* file, contents to serve *)
  mutable parts : (string * string * Hes_db.t) list;
      (* file, the contents parsed, parsed db *)
  mutable fresh : bool;  (* [parts] reflects [pending] *)
  mutable generation : int;
  parsed : int ref;  (* bytes handed to the line parser since start *)
}

let load t =
  let fs = Netsim.Host.fs t.host in
  t.pending <-
    List.filter_map
      (fun f ->
        Netsim.Vfs.read fs ~path:(t.dir ^ "/" ^ f)
        |> Option.map (fun c -> (f, c)))
      db_files;
  t.fresh <- false;
  t.generation <- t.generation + 1

let force t =
  if not t.fresh then begin
    let old = t.parts in
    t.parts <-
      List.map
        (fun (f, c) ->
          let c', db =
            match List.find_opt (fun (f', _, _) -> String.equal f f') old with
            | Some (_, c', db) -> (c', db)
            | None -> ("", Hes_db.empty)
          in
          (f, c, Hes_db.update ~parsed:t.parsed db ~old:c' c))
        t.pending;
    t.fresh <- true
  end

let restart t = load t

let resolve_local t ~name ~ty =
  force t;
  Hes_db.resolve_stacked (List.map (fun (_, _, db) -> db) t.parts) ~name ~ty

let loaded_keys t =
  force t;
  List.fold_left (fun n (_, _, db) -> n + Hes_db.size db) 0 t.parts

let generation t = t.generation

let parsed_bytes t =
  force t;
  !(t.parsed)

let start ~dir host =
  let t =
    {
      host;
      dir;
      pending = [];
      parts = [];
      fresh = true;
      generation = 0;
      parsed = ref 0;
    }
  in
  load t;
  Netsim.Host.serve host ~service:"hesiod" (fun ~src:_ payload ->
      match String.index_opt payload ' ' with
      | None -> ""
      | Some i ->
          let name = String.sub payload 0 i in
          let ty =
            String.sub payload (i + 1) (String.length payload - i - 1)
          in
          String.concat "\n" (resolve_local t ~name ~ty));
  Netsim.Host.on_boot host (fun _ -> load t);
  t

let resolve net ~src ~server ~name ~ty =
  match
    Netsim.Net.call net ~src ~dst:server ~service:"hesiod" (name ^ " " ^ ty)
  with
  | Ok "" -> Ok []
  | Ok reply -> Ok (String.split_on_char '\n' reply)
  | Error f -> Error f
