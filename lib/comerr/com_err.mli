(** The com_err error-code mechanism (Ken Raeburn's libcom_err).

    Several independent sets of error codes coexist in one program: every
    error code is an integer, and each error table reserves a subrange of
    the integers based on a hash of the (at most four character) table
    name.  By convention code [0] means success.  See paper section 5.6.1. *)

(** A registered error table. *)
type table

val create_table : name:string -> string array -> table
(** [create_table ~name messages] registers a new error table.  [name] is
    the table name (at most four characters are significant, as in the C
    implementation); [messages] are the error strings, in order.  The table
    is assigned a base code derived from hashing [name].

    @raise Invalid_argument if a table with a colliding base is already
    registered with a different name. *)

val base : table -> int
(** [base t] is the first error code of table [t]'s reserved range. *)

val size : table -> int
(** [size t] is the number of messages in [t] — valid code indices are
    [0 .. size t - 1].  The deep lint pass uses it to check that the
    named bindings in [Moira.Mr_err] cover the whole table. *)

val code : table -> int -> int
(** [code t i] is the error code for the [i]th message of [t] (0-based).

    @raise Invalid_argument if [i] is out of range for [t]. *)

val error_message : int -> string
(** [error_message c] is the message string associated with error code [c].
    Code [0] yields ["Success"].  Codes from unregistered tables yield a
    generic ["Unknown code ..."] string, mirroring the C library. *)

val error_table_name : int -> string
(** [error_table_name c] recovers the table-name string encoded in the
    base of code [c] (the inverse of the name hash), e.g. for debugging. *)

val com_err : whoami:string -> int -> string -> unit
(** [com_err ~whoami code msg] reports an error in the standard format
    ["whoami: error_message(code) msg\n"] on [stderr], or routes it to the
    hook installed with {!set_com_err_hook}.  If [code] is zero no error
    message text is printed for the code. *)

val set_com_err_hook : (whoami:string -> int -> string -> unit) -> unit
(** Install a hook receiving all subsequent {!com_err} reports (e.g. to
    route them to a log or a dialogue box).  Returns via {!reset_com_err_hook}. *)

val reset_com_err_hook : unit -> unit
(** Remove any installed hook; {!com_err} prints to [stderr] again. *)
