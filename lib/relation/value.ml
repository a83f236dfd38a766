type t =
  | Int of int
  | Str of string
  | Bool of bool

type ctype = TInt | TStr | TBool

let ctype_of = function Int _ -> TInt | Str _ -> TStr | Bool _ -> TBool
let ctype_name = function TInt -> "int" | TStr -> "string" | TBool -> "bool"

let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | (Int _ | Str _ | Bool _), _ -> false

let to_string = function
  | Int i -> string_of_int i
  | Str s -> s
  | Bool b -> if b then "1" else "0"

let of_string ctype s =
  match ctype with
  | TStr -> Str s
  | TInt -> (
      match int_of_string_opt (String.trim s) with
      | Some i -> Int i
      | None -> failwith (Printf.sprintf "value: %S is not an integer" s))
  | TBool -> (
      match String.trim s with
      | "0" -> Bool false
      | "1" -> Bool true
      | _ -> failwith (Printf.sprintf "value: %S is not a boolean" s))

let int = function
  | Int i -> i
  | Bool b -> if b then 1 else 0
  | Str s -> invalid_arg (Printf.sprintf "Value.int: string %S" s)

let str = function
  | Str s -> s
  | Int _ | Bool _ -> invalid_arg "Value.str: not a string"

let bool = function
  | Bool b -> b
  | Int i -> i <> 0
  | Str s -> invalid_arg (Printf.sprintf "Value.bool: string %S" s)

let pp fmt = function
  | Int i -> Format.fprintf fmt "%d" i
  | Str s -> Format.fprintf fmt "%S" s
  | Bool b -> Format.fprintf fmt "%b" b
