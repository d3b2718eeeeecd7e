(** Cluster-pruned exact k-nearest-neighbour index over {!Featmat} rows.

    The index partitions the rows into coarse k-means-style clusters and
    stores, per cluster, its centroid and the radius of its farthest
    member. A query first measures its distance to every centroid
    (O(√n·d) for the default cluster count), then visits the clusters
    in ascending order of centroid distance, so the first rows seen are
    the nearest. Every row [x] of cluster [c] satisfies
    [d(q,x) >= d(q,c) - r_c]; once [k] candidates are held, a cluster
    whose squared bound [max 0 (d(q,c) - r_c)²] (with a conservative
    floating-point margin) exceeds the largest kept distance cannot
    contribute and is skipped without touching its rows.

    Each visited cluster is reranked {e exactly}: one call of the same
    distance kernel the dense scan uses computes all of its rows, and
    only rows not strictly farther than the largest kept distance join
    the candidate list. Whenever the list reaches [2k] it is cut back to
    its [k] smallest (value, index) pairs, so a store whose clusters
    never prune still costs one scan plus work linear in the rows
    scanned. A final selection and prefix sort order the survivors by
    (value, index) — a canonical set independent of visit order — so
    the result is bit-identical to a full scan followed by top-k
    selection. The bounds and the filter only decide which rows are
    {e not} kept; they never alter a kept value.

    The index is immutable; {!insert_batch} returns an updated copy and
    triggers a full deterministic rebuild when the appended rows
    outgrow the build-time structure. Construction is deterministic
    (evenly spaced seeding, fixed Lloyd iteration budget), and
    {!export}/{!import} round-trip the exact structure so a restored
    index answers queries bit-identically without rebuilding. *)

type t

(** [build ?n_clusters fm] clusters the rows of [fm] (default cluster
    count ≈ √n, the classical balance between centroid-scan and
    candidate-scan cost). Lloyd iterations run on an evenly spaced
    sample of at most ~16k rows; the final assignment pass covers every
    row. Deterministic: the same matrix always yields the same index.
    Raises [Invalid_argument] on an empty matrix or a non-positive
    [n_clusters]. *)
val build : ?n_clusters:int -> Featmat.t -> t

(** Number of rows covered by the index. *)
val length : t -> int

(** Feature dimension of the indexed rows. *)
val dim : t -> int

(** Number of (non-empty) clusters. *)
val clusters : t -> int

(** Rows appended by {!insert_batch} since the last (re)build — the
    input to the rebuild policy. *)
val inserted_since_build : t -> int

(** [member_order t] is a copy of the index's member permutation: entry
    [m] is the original row id stored at packed position [m] (rows
    grouped cluster-contiguously, ascending within each cluster).
    Sidecar tables permuted by it ([packed.(m) = table.(order.(m))])
    line up with the positions {!query_into}'s [pos] output reports.
    The permutation changes whenever the index value changes
    ({!insert_batch} both with and without a rebuild), so permuted
    sidecars must be rebuilt against the new index. *)
val member_order : t -> int array

(** Per-query pruning effectiveness, accumulated by the caller: rows
    whose exact distance was computed (the sizes of the visited
    clusters, whether or not a row survived the filter), rows skipped
    by the cluster bound, and clusters skipped whole. *)
type acc = {
  mutable ac_scanned : int;
  mutable ac_rows_pruned : int;
  mutable ac_clusters_pruned : int;
}

(** A fresh all-zero accumulator. *)
val acc_create : unit -> acc

(** Cumulative counters since the index was built or imported (summed
    over all domains; safe to read concurrently with queries). *)
type stats = {
  st_queries : int;
  st_scanned : int;
  st_rows_pruned : int;
  st_clusters_pruned : int;
}

(** [stats t] reads the cumulative counters — a consistent point-in-time
    sum across domains. *)
val stats : t -> stats

(** [query_into t fm q ~k ~idxs ~vals ~off] writes the [k] nearest rows
    to [q] — ascending by (squared distance, row index), exactly the
    prefix a dense scan plus {!Select.select_in_place} would produce —
    into [idxs.(off..)] / [vals.(off..)] and returns the count
    (min [k] (length t)). [fm] must be the matrix the index was built
    over (same row count and dimension — checked). [q] must be in the
    same feature space as the rows. When [stats] is given the query's
    scan/prune counts are added to it (the cumulative {!stats} counters
    update regardless). Safe to call from multiple domains concurrently
    (per-domain scratch; the output slices must not overlap).

    Per-domain candidate scratch stays below [2k] plus the largest
    cluster: rows strictly farther than the current [k]-th distance
    are dropped as they are computed, and the list is cut back to [k]
    whenever it reaches [2k]. Ties at the [k]-th distance are always
    kept, so the final (value, index) selection decides them.

    When [pos] is given, [pos.(off..off+k)] additionally receives each
    selected row's {e packed position} — its index in {!member_order},
    i.e. its row in the cluster-contiguous gathered copy the rerank
    scans. Sidecar tables permuted into that order (see
    {!member_order}) can then be read near-contiguously instead of
    gathering entry-order tables at random, which is what makes the
    calibration p-value pass tile-local. The positions are selection
    payload only: they never enter a comparison, so results with and
    without [pos] are bit-identical.

    Raises [Invalid_argument] on shape mismatch or insufficient output
    capacity. *)
val query_into :
  ?stats:acc ->
  ?pos:int array ->
  t ->
  Featmat.t ->
  Vec.t ->
  k:int ->
  idxs:int array ->
  vals:float array ->
  off:int ->
  int

(** [insert_batch t fm ~from_row] extends the index over the rows
    [from_row .. length fm - 1] of [fm] — the matrix the index was
    built over with new rows appended ([from_row] must equal
    [length t]). Each new row joins its nearest cluster (first minimum
    wins) and grows that cluster's radius as needed, so queries remain
    exact. Returns [(t', rebuilt)]: when the appended rows reach half
    the build-time row count, or some cluster grows past 8× the mean
    cluster size, the index is rebuilt from scratch instead
    ([rebuilt = true]) — incremental inserts never degrade query cost
    unboundedly. *)
val insert_batch : t -> Featmat.t -> from_row:int -> t * bool

(** The exact structure of an index, for persistence: centroids are the
    flat row-major matrix, [ex_members] lists row ids grouped by
    cluster (ascending within each cluster) and [ex_offsets] frames the
    groups. Floats round-trip as IEEE bit patterns, so
    [import (export t)] answers queries bit-identically to [t]. *)
type export = {
  ex_dim : int;
  ex_n : int;
  ex_built_n : int;
  ex_centroids : float array;
  ex_radii : float array;
  ex_members : int array;
  ex_offsets : int array;
}

(** [export t] captures the index's exact structure for the snapshot
    codec. *)
val export : t -> export

(** [import e] revalidates the structure ([ex_members] must be a
    permutation of the row ids, [ex_offsets] monotone and consistent,
    radii finite and non-negative, shapes coherent) and rebuilds the
    index without any clustering pass. Raises [Invalid_argument] on
    inconsistent state. *)
val import : export -> t
