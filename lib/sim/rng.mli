(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic element of the simulation — workload synthesis, fault
    injection, latency jitter — draws from an explicitly seeded stream so
    that runs are exactly reproducible. *)

type t

val create : int -> t
(** A generator seeded with the given integer. *)

val split : t -> t
(** A new independent stream derived from (and advancing) [t]. *)

val int : t -> int -> int
(** [int t n] is uniform in [[0, n)].  @raise Invalid_argument if [n <= 0]. *)

val in_range : t -> int -> int -> int
(** [in_range t lo hi] is uniform in [[lo, hi]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val bool : t -> bool
(** A fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to [0,1]). *)

val float : t -> float
(** Uniform in [[0, 1)]. *)

val jitter : t -> frac:float -> int -> int
(** [jitter t ~frac x] is [x] scaled by a uniform factor in
    [[1 -. frac, 1 +. frac]], clamped to be non-negative — used to
    de-synchronise retry backoff across hosts. *)

val pick : t -> 'a array -> 'a
(** A uniformly random element.  @raise Invalid_argument on empty array. *)

val pick_list : t -> 'a list -> 'a
(** A uniformly random list element.  @raise Invalid_argument on []. *)
