exception Crashed of string

type handler = src:string -> string -> string

type t = {
  name : string;
  mutable up : bool;
  fs : Vfs.t;
  services : (string, handler) Hashtbl.t;
  armed : (string, unit) Hashtbl.t;
  mutable boot_hooks : (t -> unit) list;
}

let create name =
  {
    name;
    up = true;
    fs = Vfs.create ();
    services = Hashtbl.create 7;
    armed = Hashtbl.create 7;
    boot_hooks = [];
  }

let name t = t.name
let fs t = t.fs
let is_up t = t.up
let register t ~service h = Hashtbl.replace t.services service h
let unregister t ~service = Hashtbl.remove t.services service
let lookup t ~service = Hashtbl.find_opt t.services service

let crash t =
  t.up <- false;
  Hashtbl.reset t.services;
  Vfs.crash t.fs

let boot t =
  t.up <- true;
  List.iter (fun hook -> hook t) (List.rev t.boot_hooks)

let on_boot t hook = t.boot_hooks <- hook :: t.boot_hooks

let serve t ~service h =
  register t ~service h;
  on_boot t (fun t -> register t ~service h)

let arm_crash t ~point = Hashtbl.replace t.armed point ()

let maybe_crash t ~point =
  if Hashtbl.mem t.armed point then begin
    Hashtbl.remove t.armed point;
    crash t;
    raise (Crashed point)
  end
