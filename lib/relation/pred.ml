type t =
  | True
  | Eq of string * Value.t
  | Glob of string * string
  | And of t * t
  | Or of t * t
  | Not of t

let conj = function
  | [] -> True
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let disj = function
  | [] -> Not True
  | p :: ps -> List.fold_left (fun acc q -> Or (acc, q)) p ps

let eq_str col s = Eq (col, Value.Str s)
let eq_int col i = Eq (col, Value.Int i)
let eq_bool col b = Eq (col, Value.Bool b)

let name_match col arg =
  if Glob.is_pattern arg then Glob (col, arg) else Eq (col, Value.Str arg)

let rec eval schema p tuple =
  let col c = tuple.(Schema.index_of schema c) in
  match p with
  | True -> true
  | Eq (c, v) -> Value.equal (col c) v
  | Glob (c, pat) -> Glob.matches ~pattern:pat (Value.to_string (col c))
  | And (a, b) -> eval schema a tuple && eval schema b tuple
  | Or (a, b) -> eval schema a tuple || eval schema b tuple
  | Not a -> not (eval schema a tuple)

type shape =
  | S_true
  | S_eq of string * int
  | S_glob of string * int
  | S_and of shape * shape
  | S_or of shape * shape
  | S_not of shape

(* Equality constants and glob patterns become parameter slots (numbered
   left to right), so a shape is fixed by the code that built the
   predicate, whatever its arguments. *)
let split p =
  let params = ref [] in
  let n = ref 0 in
  let slot v =
    let i = !n in
    incr n;
    params := v :: !params;
    i
  in
  let rec go = function
    | True -> S_true
    | Eq (c, v) -> S_eq (c, slot v)
    | Glob (c, pat) -> S_glob (c, slot (Value.Str pat))
    | And (a, b) ->
        let a' = go a in
        let b' = go b in
        S_and (a', b')
    | Or (a, b) ->
        let a' = go a in
        let b' = go b in
        S_or (a', b')
    | Not a -> S_not (go a)
  in
  let s = go p in
  (s, Array.of_list (List.rev !params))

let fill s params =
  let rec go = function
    | S_true -> True
    | S_eq (c, i) -> Eq (c, params.(i))
    | S_glob (c, i) -> Glob (c, Value.to_string params.(i))
    | S_and (a, b) -> And (go a, go b)
    | S_or (a, b) -> Or (go a, go b)
    | S_not a -> Not (go a)
  in
  go s

let rec indexable_eqs = function
  | Eq (c, v) -> [ (c, v) ]
  | And (a, b) -> indexable_eqs a @ indexable_eqs b
  | True | Glob _ | Or _ | Not _ -> []

let rec pp fmt = function
  | True -> Format.fprintf fmt "true"
  | Eq (c, v) -> Format.fprintf fmt "%s = %a" c Value.pp v
  | Glob (c, p) -> Format.fprintf fmt "%s ~ %S" c p
  | And (a, b) -> Format.fprintf fmt "(%a && %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a || %a)" pp a pp b
  | Not a -> Format.fprintf fmt "!(%a)" pp a
