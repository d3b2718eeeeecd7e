(** Top-k selection over float keys, replacing the full O(n log n)
    sorts on the detector hot path.

    Materialized selection ({!select_in_place}, {!smallest_k}) is an
    exact radix top-k with no data-dependent branch on its hot loops:

    - {b Key transform.} Each key maps to a 32-bit integer monotone in
      the float order: the top 32 bits of its IEEE-754 pattern, with the
      magnitude bits of negative keys flipped and the sign lifted above
      them. That integer is packed above the element index into one
      word, so word order is (key, index).
    - {b Sort.} A stable LSD counting sort orders the words in four
      passes of 8-bit digits, skipping any pass whose digit is the same
      for every word. Below 64 keys an insertion sort over the same
      words replaces the passes; it is the only size-dependent choice.
    - {b Fix-up.} One linear pass finds runs of words that share the
      32-bit key, up to the run straddling position [k], and re-sorts
      each by the low 32 bits of the pattern the same way. A run costs
      O(run), so many equal keys (a query coinciding with many
      calibration rows) stay linear.
    - {b Gather.} The kept values are copied back from the original
      keys, bit for bit.

    The order is ascending (value, index) over every float: [-0.0] ties
    [+0.0] (as under [=]), and every NaN sorts after [+infinity], all
    NaNs tying with each other (so they come out in index order).
    Results are a deterministic function of the input.

    Streaming callers use a bounded max-heap (O(n log k)) ordered by the
    float comparisons; its NaN order is unspecified. *)

(** [smallest_k xs k] is the indices of the [k] smallest elements of
    [xs], ordered by ascending (value, index). [k] is clamped to the
    array length; raises [Invalid_argument] when negative. *)
val smallest_k : float array -> int -> int array

(** [smallest_k_pairs xs k] additionally pairs each index with its
    value, in the same order. *)
val smallest_k_pairs : float array -> int -> (int * float) array

(** {2 Reusable workspace}

    A selection workspace whose arrays are reused across calls. Hot
    paths hold one per domain (e.g. via [Domain.DLS]) so repeated
    selections do not churn the major heap with fresh scratch arrays —
    major-heap churn paces stop-the-world GC slices, which are costly
    when domains share cores. Not safe to share between concurrent
    queries. *)
type scratch

val scratch_create : unit -> scratch

(** [scratch_keys s n] grows the workspace to hold at least [n] keys and
    returns the key buffer; the caller fills positions [0..n-1]. *)
val scratch_keys : scratch -> int -> float array

(** [select_in_place s ~n ~k] arranges the [k] smallest (value, index)
    pairs of the first [n] keys into the prefix of the workspace,
    ascending by (value, index) — read them back with {!scratch_vals}
    and {!scratch_idxs}. Destroys the key order and the index buffer
    past [k]. The engine's own workspaces grow on first use to the key
    buffer's capacity. Raises [Invalid_argument] when [k] is outside
    [[0, n]], [n] exceeds the key buffer or [n >= 2^31]. *)
val select_in_place : scratch -> n:int -> k:int -> unit

val scratch_vals : scratch -> float array
val scratch_idxs : scratch -> int array

(** {2 Triple-array selection}

    A comparison quickselect over caller-owned parallel (value, id)
    arrays, for candidate sets whose ids are not positions, with a
    second int payload [aux] permuted alongside. The pruned kNN index
    reranks member rows gathered from surviving clusters this way,
    threading each candidate's packed storage position through as
    [aux] so the p-value tables can be read in cluster-contiguous
    packed order. The comparisons order by (value, id) only, so on
    non-NaN keys the selected prefix is exactly what a dense
    position-indexed scan plus {!select_in_place} keeps. *)

(** [partition_trips ~vals ~ids ~aux ~n ~k] arranges the [k] smallest
    (value, id) entries of the first [n] into positions [0..k-1], in
    arbitrary order within the prefix, permuting [aux] alongside.
    O(n). *)
val partition_trips :
  vals:float array -> ids:int array -> aux:int array -> n:int -> k:int -> unit

(** [sort_trips_prefix ~vals ~ids ~aux ~k] sorts positions [0..k-1]
    ascending by (value, id), permuting [aux] alongside.
    O(k log k). *)
val sort_trips_prefix : vals:float array -> ids:int array -> aux:int array -> k:int -> unit

(** {2 Streaming heap}

    A reusable bounded max-heap for callers that stream keys instead of
    materializing a full array (e.g. distance scans over a feature
    matrix). *)
type heap

(** [heap_create k] allocates a heap retaining the [k] smallest offered
    elements. *)
val heap_create : int -> heap

(** [heap_reset h k] empties [h] and rebounds it to retain the [k]
    smallest elements, growing the backing arrays when needed — so a
    per-domain heap can be reused across queries without allocating. *)
val heap_reset : heap -> int -> unit

(** [offer h v i] considers element [i] with key [v]. *)
val offer : heap -> float -> int -> unit

(** [heap_is_full h] is true once the heap holds its bound of elements —
    from then on only offers beating {!heap_worst} are admitted. *)
val heap_is_full : heap -> bool

(** [heap_worst h] is the largest (value, index) key currently kept —
    the admission threshold pruning callers compare lower bounds
    against. Raises [Invalid_argument] on an empty heap. *)
val heap_worst : heap -> float

(** [drain_into h ~idxs ~vals] empties the heap into the prefixes of the
    caller's scratch arrays, ascending by (value, index), and returns the
    element count. The allocation-free form of {!drain_sorted}; the heap
    is reusable afterwards via {!heap_reset}. *)
val drain_into : heap -> idxs:int array -> vals:float array -> int

(** [drain_sorted h] empties the heap, returning (index, value) pairs by
    ascending (value, index). The heap must not be reused afterwards. *)
val drain_sorted : heap -> (int * float) array

(** {2 Weighted selection}

    Support kernel for weighted conformal calibration: a selection's
    Eq. 1 weight prefix is multiplied in place by per-entry decay
    factors. *)

(** [scale_by ~weights ~idxs ~factors ~n] sets
    [weights.(r) <- weights.(r) *. factors.(idxs.(r))] for [r < n].
    [idxs] may hold entry ids (dense selections, [factors] in entry
    order) or packed member-order positions (pruned selections,
    [factors] permuted into the index's packed layout), so the factor
    reads stay tile-local on the gather-free path. Raises
    [Invalid_argument] when [n] exceeds either prefix; factor indices
    are trusted like the selection buffers they come from. *)
val scale_by : weights:float array -> idxs:int array -> factors:float array -> n:int -> unit
