(** Squared-distance kernel backends.

    The distance scans under every hot path ({!Featmat}, {!Knn_index},
    the calibration pipeline) bottom out in two primitives — a
    pair-of-segments squared distance and a row-range scan — with three
    interchangeable implementations: a pure-OCaml reference, a portable
    scalar C build, and a SIMD build (SSE2/AVX2, chosen by a runtime
    CPU probe; no [-march] is baked into the artifact).

    {2 The 4-lane accumulation-order contract}

    All backends compute [sum_j (a_j - b_j)^2] with four independent
    accumulator lanes: element [j] adds its squared difference into
    lane [j mod 4], and the lanes reduce as [(l0 + l2) + (l1 + l3)] —
    the order a two-register vertical add followed by a horizontal add
    produces on 128-bit SIMD.  IEEE-754 [+.] and [*.] are exact
    functions of their operand bits, so three implementations that
    perform the identical operations in the identical order return
    bit-identical results on every input, NaN and infinity included.
    That makes the backend choice purely a performance knob: verdicts,
    snapshots and parity gates are unaffected.

    One caveat: when {e both} operands of an accumulator add are NaN
    (a NaN input element and an [inf - inf] difference landing in the
    same lane), IEEE-754 does not specify which payload survives — the
    hardware keeps the first operand's, and a C compiler may commute
    the add, so the payload bits of such a NaN result are not pinned
    across backends.  NaN-ness and NaN positions are still exact; the
    parity gates therefore treat any NaN as equal to any NaN while
    requiring full bit equality for every non-NaN result.

    The backend is fixed at startup: [PROM_KERNELS=simd|c|ocaml]
    overrides, otherwise the best available backend is used ([simd]
    where the probe finds SSE2/AVX2, [c] elsewhere).  Requesting [simd]
    on a host without SIMD degrades to [c]; an unknown value raises
    [Invalid_argument] on first kernel use. *)

(** The three implementations. [Simd] means the best probed ISA level
    (AVX2 where supported, SSE2 otherwise on x86-64). *)
type backend = Ocaml | C | Simd

(** [available b] is whether backend [b] can run on this host. [Ocaml]
    and [C] always can; [Simd] requires a successful CPU probe. *)
val available : backend -> bool

(** Stable lowercase name: ["ocaml"], ["c"], ["simd"]. *)
val backend_name : backend -> string

(** ISA detail for a backend: ["ocaml"], ["scalar"], ["sse2"] or
    ["avx2"] (what [Simd] resolved to on this host). *)
val isa_name : backend -> string

(** The backend every implicit-backend entry point dispatches to,
    resolved on first use from [PROM_KERNELS] / the CPU probe. Safe to
    call from several domains at once, including the first call. *)
val active : unit -> backend

(** [backend_name (active ())]. *)
val active_name : unit -> string

(** [isa_name (active ())]. *)
val active_isa : unit -> string

(** [sq_dist_segs a oa b ob dim] is the squared Euclidean distance
    between [a.(oa .. oa+dim)] and [b.(ob .. ob+dim)] on the active
    backend.  Unsafe: bounds are the caller's responsibility. *)
val sq_dist_segs : float array -> int -> float array -> int -> int -> float

(** [sq_dist_segs] on an explicit backend (cross-backend checks and
    benchmarks). *)
val sq_dist_segs_with : backend -> float array -> int -> float array -> int -> int -> float

(** [sq_dists_range ~data ~dim ~r0 ~r1 ~q ~oq ~out ~off] writes
    [out.(off + i - r0) <- sqdist(row i of data, q.(oq..))] for each
    [i] in [[r0, r1)], where [data] packs rows of width [dim]
    row-major.  One call scans a whole row range, amortizing dispatch
    over the tile; native backends chunk internally so long scans keep
    hitting GC safepoints.  Raises [Invalid_argument] if the range,
    query segment or output slice is out of bounds. *)
val sq_dists_range :
  data:float array ->
  dim:int ->
  r0:int ->
  r1:int ->
  q:float array ->
  oq:int ->
  out:float array ->
  off:int ->
  unit

(** [sq_dists_range] on an explicit backend. *)
val sq_dists_range_with :
  backend ->
  data:float array ->
  dim:int ->
  r0:int ->
  r1:int ->
  q:float array ->
  oq:int ->
  out:float array ->
  off:int ->
  unit
