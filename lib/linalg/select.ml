(* Bounded top-k selection over float keys. The tie-break is always the
   element index, so a selection is a deterministic function of its
   input — the property the detectors rely on to keep batched and
   sequential evaluation bit-identical. *)

(* Lexicographic (value, index) order. The type annotations matter: they
   specialize the comparisons to floats/ints at compile time (the
   polymorphic versions are C calls that box every float), and inlining
   keeps the arguments unboxed on the hot path. *)
let[@inline] gt (a : float) (i : int) (b : float) (j : int) =
  a > b || (a = b && i > j)

let[@inline] lt (a : float) (i : int) (b : float) (j : int) =
  a < b || (a = b && i < j)

(* A bounded binary max-heap over (value, index) pairs kept in two
   parallel unboxed arrays; the root is the current worst of the k best
   seen so far. Used by streaming callers (distance scans). *)
type heap = {
  mutable capacity : int;
  mutable vals : float array;
  mutable idxs : int array;
  mutable size : int;
}

let heap_create capacity =
  if capacity < 0 then invalid_arg "Select: negative k";
  { capacity; vals = Array.make (Stdlib.max capacity 1) 0.0;
    idxs = Array.make (Stdlib.max capacity 1) 0; size = 0 }

(* Reuse a heap with a new bound: grows the backing arrays when needed
   and empties the heap, so hot paths keep one heap per domain instead
   of allocating per call. *)
let heap_reset h capacity =
  if capacity < 0 then invalid_arg "Select: negative k";
  if Array.length h.vals < capacity then begin
    h.vals <- Array.make capacity 0.0;
    h.idxs <- Array.make capacity 0
  end;
  h.capacity <- capacity;
  h.size <- 0

(* Both sifts hold the moved element in locals and write it once at its
   final slot — no swaps, no refs, no allocation on the hot path. *)
let sift_up h j0 =
  let v = Array.unsafe_get h.vals j0 and i = Array.unsafe_get h.idxs j0 in
  let rec climb j =
    if j = 0 then j
    else begin
      let parent = (j - 1) / 2 in
      let pv = Array.unsafe_get h.vals parent and pi = Array.unsafe_get h.idxs parent in
      if gt v i pv pi then begin
        Array.unsafe_set h.vals j pv;
        Array.unsafe_set h.idxs j pi;
        climb parent
      end
      else j
    end
  in
  let j = climb j0 in
  Array.unsafe_set h.vals j v;
  Array.unsafe_set h.idxs j i

let sift_down h j0 =
  let v = Array.unsafe_get h.vals j0 and i = Array.unsafe_get h.idxs j0 in
  let rec descend j =
    let l = (2 * j) + 1 in
    if l >= h.size then j
    else begin
      let r = l + 1 in
      let c =
        if
          r < h.size
          && gt (Array.unsafe_get h.vals r) (Array.unsafe_get h.idxs r)
               (Array.unsafe_get h.vals l) (Array.unsafe_get h.idxs l)
        then r
        else l
      in
      let cv = Array.unsafe_get h.vals c and ci = Array.unsafe_get h.idxs c in
      if gt cv ci v i then begin
        Array.unsafe_set h.vals j cv;
        Array.unsafe_set h.idxs j ci;
        descend c
      end
      else j
    end
  in
  let j = descend j0 in
  Array.unsafe_set h.vals j v;
  Array.unsafe_set h.idxs j i

(* Consider element [i] with key [v] for membership in the k smallest. *)
let offer h v i =
  if h.capacity > 0 then
    if h.size < h.capacity then begin
      h.vals.(h.size) <- v;
      h.idxs.(h.size) <- i;
      h.size <- h.size + 1;
      sift_up h (h.size - 1)
    end
    else if gt h.vals.(0) h.idxs.(0) v i then begin
      h.vals.(0) <- v;
      h.idxs.(0) <- i;
      sift_down h 0
    end

(* Saturation test and current worst kept key — the pair pruning
   callers need: a candidate set can only be skipped once the heap is
   full AND the set's lower bound beats the root. *)
let[@inline] heap_is_full h = h.size >= h.capacity

let heap_worst h =
  if h.size = 0 then invalid_arg "Select.heap_worst: empty heap";
  h.vals.(0)

(* Drain the heap into caller-provided scratch, ascending by
   (value, index); returns the element count. Empties the heap without
   allocating — the in-place form of [drain_sorted] for hot paths that
   reuse their result arrays across queries. *)
let drain_into h ~idxs ~vals =
  let n = h.size in
  if Array.length idxs < n || Array.length vals < n then
    invalid_arg "Select.drain_into: scratch too small";
  for slot = n - 1 downto 0 do
    idxs.(slot) <- h.idxs.(0);
    vals.(slot) <- h.vals.(0);
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.vals.(0) <- h.vals.(h.size);
      h.idxs.(0) <- h.idxs.(h.size);
      sift_down h 0
    end
  done;
  n

(* Drain the heap into (index, value) pairs sorted by ascending
   (value, index). Destroys the heap. *)
let drain_sorted h =
  let n = h.size in
  let out = Array.make n (0, 0.0) in
  for slot = n - 1 downto 0 do
    out.(slot) <- (h.idxs.(0), h.vals.(0));
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.vals.(0) <- h.vals.(h.size);
      h.idxs.(0) <- h.idxs.(h.size);
      sift_down h 0
    end
  done;
  out

(* --- Materialized selection: exact radix top-k. ---

   When the keys already live in an array (the detector's per-query
   distance scan), a bounded heap degrades towards a full sort as k
   approaches n, and a comparison quickselect is bound by branch
   mispredictions: every (value, index) comparison is a coin flip. The
   engine below orders packed integer words instead — key transform,
   LSD counting sort, fix-up of runs sharing the 32-bit key, gather —
   as described in select.mli. On every non-NaN input the result is the
   ascending (value, index) order a comparison sort produces, which the
   detectors' bit-identity contract rests on. *)

(* Index field of a packed word; caps selections at 2^31 keys. *)
let id_bits = 31
let id_mask = (1 lsl id_bits) - 1

(* Below this many words an insertion sort beats the radix passes'
   fixed cost (a 1024-entry histogram reset plus prefix sums). *)
let radix_min_n = 64

(* IEEE pattern of the canonical key: -0.0 becomes +0.0, any NaN the
   positive [Float.nan]. *)
let[@inline] canonical_bits x =
  Int64.bits_of_float (if Float.is_nan x then Float.nan else x +. 0.0)

(* Monotone 32-bit key from the high half of the pattern. [s] is all
   ones for negative keys, whose magnitude bits run backwards. *)
let[@inline] hi_key x =
  let hi = Int64.to_int (Int64.shift_right (canonical_bits x) 32) in
  let s = hi asr 31 in
  (hi lxor (s land 0x7FFF_FFFF)) + 0x8000_0000

(* The matching key from the low half, valid among keys that share
   [hi_key] (and therefore the sign). *)
let[@inline] lo_key x =
  let b = canonical_bits x in
  let s = Int64.to_int (Int64.shift_right b 63) in
  (Int64.to_int b lxor s) land 0xFFFF_FFFF

(* Unsigned word order: the key's top bit is the OCaml sign bit. *)
let[@inline] word_lt (a : int) (b : int) = a lxor min_int < b lxor min_int

let insertion_sort_words buf lo hi =
  for a = lo + 1 to hi - 1 do
    let w = Array.unsafe_get buf a in
    let j = ref (a - 1) in
    while !j >= lo && word_lt w (Array.unsafe_get buf !j) do
      Array.unsafe_set buf (!j + 1) (Array.unsafe_get buf !j);
      decr j
    done;
    Array.unsafe_set buf (!j + 1) w
  done

(* Stable LSD counting sort of [src.[lo, hi)] by the key field, 8 bits a
   pass, ping-ponging with [dst]; returns whether the result ended in
   [dst]. The four digit histograms are taken in one read up front
   (permuting the words never changes them), and a pass is skipped when
   one bucket holds every word. *)
let radix_sort_range counts src dst lo hi =
  Array.fill counts 0 1024 0;
  for j = lo to hi - 1 do
    let key = Array.unsafe_get src j lsr id_bits in
    let c0 = key land 255
    and c1 = 256 + ((key lsr 8) land 255)
    and c2 = 512 + ((key lsr 16) land 255)
    and c3 = 768 + (key lsr 24) in
    Array.unsafe_set counts c0 (Array.unsafe_get counts c0 + 1);
    Array.unsafe_set counts c1 (Array.unsafe_get counts c1 + 1);
    Array.unsafe_set counts c2 (Array.unsafe_get counts c2 + 1);
    Array.unsafe_set counts c3 (Array.unsafe_get counts c3 + 1)
  done;
  let src = ref src and dst = ref dst and in_dst = ref false in
  for p = 0 to 3 do
    let base = 256 * p and shift = id_bits + (8 * p) in
    let first = (Array.unsafe_get !src lo lsr shift) land 255 in
    if counts.(base + first) < hi - lo then begin
      (* Exclusive prefix sums turn the counts into write cursors. *)
      let at = ref lo in
      for d = base to base + 255 do
        let c = Array.unsafe_get counts d in
        Array.unsafe_set counts d !at;
        at := !at + c
      done;
      let s = !src and t = !dst in
      for j = lo to hi - 1 do
        let w = Array.unsafe_get s j in
        let d = base + ((w lsr shift) land 255) in
        let at = Array.unsafe_get counts d in
        Array.unsafe_set counts d (at + 1);
        Array.unsafe_set t at w
      done;
      src := t;
      dst := s;
      in_dst := not !in_dst
    end
  done;
  !in_dst

(* Reusable selection workspace. The per-query scratch arrays are large
   enough to be allocated on the major heap; reusing one workspace per
   domain (callers hold it in domain-local storage) keeps the hot path
   from churning the major heap — major churn paces GC slices, and every
   slice is a stop-the-world point that all domains must join, which is
   expensive when domains outnumber cores. [sidxs] doubles as the word
   buffer; [sorig], [swords] and [counts] are the engine's own
   workspaces, sized on first use. *)
type scratch = {
  mutable svals : float array;
  mutable sidxs : int array;
  mutable sorig : float array;
  mutable swords : int array;
  mutable counts : int array;
}

let scratch_create () = { svals = [||]; sidxs = [||]; sorig = [||]; swords = [||]; counts = [||] }

let scratch_keys s n =
  if n < 0 then invalid_arg "Select.scratch_keys: negative length";
  if Array.length s.svals < n then begin
    s.svals <- Array.make n 0.0;
    s.sidxs <- Array.make n 0
  end;
  s.svals

let scratch_vals s = s.svals
let scratch_idxs s = s.sidxs

(* Order the words of [s.sidxs.[lo, hi)] ascending, in place. *)
let sort_words s lo hi =
  if hi - lo < radix_min_n then insertion_sort_words s.sidxs lo hi
  else if radix_sort_range s.counts s.sidxs s.swords lo hi then
    Array.blit s.swords lo s.sidxs lo (hi - lo)

(* Arrange the k smallest (value, index) pairs of the keys in
   [scratch_keys s n] into the prefix, ascending. Destroys the key
   order. *)
let select_in_place s ~n ~k =
  if k < 0 || k > n then invalid_arg "Select.select_in_place: bad k";
  if n > Array.length s.svals || n > id_mask then invalid_arg "Select.select_in_place: bad n";
  if k > 0 then begin
    let cap = Array.length s.svals in
    if Array.length s.sorig < n then begin
      s.sorig <- Array.make cap 0.0;
      s.swords <- Array.make cap 0
    end;
    if Array.length s.counts = 0 then s.counts <- Array.make 1024 0;
    let keys = s.svals and orig = s.sorig and buf = s.sidxs in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get keys i in
      Array.unsafe_set orig i v;
      Array.unsafe_set buf i ((hi_key v lsl id_bits) lor i)
    done;
    sort_words s 0 n;
    (* Fix-up: re-sort each run sharing a 32-bit key by the low half of
       the pattern, up to the run that straddles position k. Runs are
       almost always singletons, so the run-end test predicts well. *)
    let i = ref 0 in
    while !i < k do
      let key = Array.unsafe_get buf !i lsr id_bits in
      let e = ref (!i + 1) in
      while !e < n && Array.unsafe_get buf !e lsr id_bits = key do
        incr e
      done;
      if !e - !i > 1 then begin
        for j = !i to !e - 1 do
          let id = Array.unsafe_get buf j land id_mask in
          Array.unsafe_set buf j ((lo_key (Array.unsafe_get orig id) lsl id_bits) lor id)
        done;
        sort_words s !i !e
      end;
      i := !e
    done;
    for j = 0 to k - 1 do
      let id = Array.unsafe_get buf j land id_mask in
      Array.unsafe_set buf j id;
      Array.unsafe_set keys j (Array.unsafe_get orig id)
    done
  end

(* --- Triple-array selection: comparison quickselect + introsort. ---

   A (value, id) quickselect over caller-owned parallel arrays with a
   second int payload permuted alongside. The comparisons never look at
   the payload, so it just rides along. The pruned index uses it to keep
   each candidate's packed storage position next to its row id, which is
   what lets the calibration tables be read in the cluster-contiguous
   packed layout instead of gathering O(n) memory. It keeps a few dozen
   of thousands of candidates, where an O(n) partition beats the radix
   engine's full sort. The helpers annotate their array types: left
   polymorphic, every write would go through caml_modify and every
   float read would be boxed. *)

let[@inline] swap3 (vals : float array) (ids : int array) (aux : int array) a b =
  let va = Array.unsafe_get vals a
  and ia = Array.unsafe_get ids a
  and xa = Array.unsafe_get aux a in
  Array.unsafe_set vals a (Array.unsafe_get vals b);
  Array.unsafe_set ids a (Array.unsafe_get ids b);
  Array.unsafe_set aux a (Array.unsafe_get aux b);
  Array.unsafe_set vals b va;
  Array.unsafe_set ids b ia;
  Array.unsafe_set aux b xa

(* Insertion sort for tiny ranges (also the base case of the select). *)
let insertion_sort3 (vals : float array) (ids : int array) (aux : int array) lo hi =
  for a = lo + 1 to hi - 1 do
    let v = Array.unsafe_get vals a
    and i = Array.unsafe_get ids a
    and x = Array.unsafe_get aux a in
    let j = ref (a - 1) in
    while !j >= lo && lt v i (Array.unsafe_get vals !j) (Array.unsafe_get ids !j) do
      Array.unsafe_set vals (!j + 1) (Array.unsafe_get vals !j);
      Array.unsafe_set ids (!j + 1) (Array.unsafe_get ids !j);
      Array.unsafe_set aux (!j + 1) (Array.unsafe_get aux !j);
      decr j
    done;
    Array.unsafe_set vals (!j + 1) v;
    Array.unsafe_set ids (!j + 1) i;
    Array.unsafe_set aux (!j + 1) x
  done

(* Median-of-three Hoare partition of [lo, hi): returns j with
   [lo, j] <= pivot <= (j, hi) and j <= hi - 2 (the pivot is not the
   range maximum). All (value, id) keys are distinct, so the split is
   always strict and both callers' recursions terminate. Requires
   hi - lo > 3. *)
let partition_range3 (vals : float array) (ids : int array) (aux : int array) lo hi =
  let mid = lo + ((hi - lo) / 2) in
  let last = hi - 1 in
  if
    lt (Array.unsafe_get vals mid) (Array.unsafe_get ids mid)
      (Array.unsafe_get vals lo) (Array.unsafe_get ids lo)
  then swap3 vals ids aux lo mid;
  if
    lt (Array.unsafe_get vals last) (Array.unsafe_get ids last)
      (Array.unsafe_get vals lo) (Array.unsafe_get ids lo)
  then swap3 vals ids aux lo last;
  if
    lt (Array.unsafe_get vals last) (Array.unsafe_get ids last)
      (Array.unsafe_get vals mid) (Array.unsafe_get ids mid)
  then swap3 vals ids aux mid last;
  let pv = Array.unsafe_get vals mid and pi = Array.unsafe_get ids mid in
  let a = ref (lo - 1) and b = ref hi in
  let continue_ = ref true in
  while !continue_ do
    incr a;
    while lt (Array.unsafe_get vals !a) (Array.unsafe_get ids !a) pv pi do
      incr a
    done;
    decr b;
    while lt pv pi (Array.unsafe_get vals !b) (Array.unsafe_get ids !b) do
      decr b
    done;
    if !a >= !b then continue_ := false else swap3 vals ids aux !a !b
  done;
  !b

(* Arrange [lo, hi) so that positions [lo, k) hold its (k - lo) smallest
   entries, in arbitrary order. Requires lo < k < hi. *)
let rec select_range3 (vals : float array) (ids : int array) (aux : int array) lo hi k =
  if hi - lo <= 3 then insertion_sort3 vals ids aux lo hi
  else begin
    let j = partition_range3 vals ids aux lo hi in
    if k <= j then select_range3 vals ids aux lo (j + 1) k
    else if k > j + 1 then select_range3 vals ids aux (j + 1) hi k
  end

(* Max-heap sift-down over the subarray [lo, lo + size), heap indices
   relative to [lo]; the engine of the introsort's depth-limit
   fallback. *)
let sift_down_range3 (vals : float array) (ids : int array) (aux : int array) lo size j0 =
  let v = Array.unsafe_get vals (lo + j0)
  and i = Array.unsafe_get ids (lo + j0)
  and x = Array.unsafe_get aux (lo + j0) in
  let rec descend j =
    let l = (2 * j) + 1 in
    if l >= size then j
    else begin
      let r = l + 1 in
      let c =
        if
          r < size
          && gt
               (Array.unsafe_get vals (lo + r))
               (Array.unsafe_get ids (lo + r))
               (Array.unsafe_get vals (lo + l))
               (Array.unsafe_get ids (lo + l))
        then r
        else l
      in
      let cv = Array.unsafe_get vals (lo + c) and ci = Array.unsafe_get ids (lo + c) in
      if gt cv ci v i then begin
        Array.unsafe_set vals (lo + j) cv;
        Array.unsafe_set ids (lo + j) ci;
        Array.unsafe_set aux (lo + j) (Array.unsafe_get aux (lo + c));
        descend c
      end
      else j
    end
  in
  let j = descend j0 in
  Array.unsafe_set vals (lo + j) v;
  Array.unsafe_set ids (lo + j) i;
  Array.unsafe_set aux (lo + j) x

let heapsort_range3 (vals : float array) (ids : int array) (aux : int array) lo hi =
  let size = hi - lo in
  if size > 1 then begin
    for j = (size / 2) - 1 downto 0 do
      sift_down_range3 vals ids aux lo size j
    done;
    for e = size - 1 downto 1 do
      swap3 vals ids aux lo (lo + e);
      sift_down_range3 vals ids aux lo e 0
    done
  end

(* Ascending introsort of [lo, hi): quicksort on the shared partition,
   insertion sort below 16 entries, heapsort once the partition depth
   budget runs out. The keys are distinct, so the order is the same
   whichever path runs. *)
let rec introsort3 (vals : float array) (ids : int array) (aux : int array) lo hi depth =
  if hi - lo <= 16 then insertion_sort3 vals ids aux lo hi
  else if depth = 0 then heapsort_range3 vals ids aux lo hi
  else begin
    let j = partition_range3 vals ids aux lo hi in
    introsort3 vals ids aux lo (j + 1) (depth - 1);
    introsort3 vals ids aux (j + 1) hi (depth - 1)
  end

let partition_trips ~vals ~ids ~aux ~n ~k =
  if k < 0 || k > n then invalid_arg "Select.partition_trips: bad k";
  if n > Array.length vals || n > Array.length ids || n > Array.length aux then
    invalid_arg "Select.partition_trips: bad n";
  if k > 0 && k < n then select_range3 vals ids aux 0 n k

let sort_trips_prefix ~vals ~ids ~aux ~k =
  if k < 0 || k > Array.length vals || k > Array.length ids || k > Array.length aux
  then invalid_arg "Select.sort_trips_prefix: bad k";
  (* Depth budget 2 * floor(log2 k): a partition sequence that
     degenerates past it hands the range to heapsort, keeping the worst
     case O(k log k). *)
  if k > 1 then begin
    let depth = ref 0 and m = ref k in
    while !m > 1 do
      incr depth;
      m := !m lsr 1
    done;
    introsort3 vals ids aux 0 k (2 * !depth)
  end

(* One-shot selections reuse a per-domain workspace, so a call
   allocates only its result. A call that finds the workspace taken —
   another systhread of the domain is mid-selection — works in a fresh
   one instead. *)
let oneshot : (scratch * bool Atomic.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (scratch_create (), Atomic.make false))

(* Common to [smallest_k] and [smallest_k_pairs]: select the k smallest
   of [xs] into a workspace and read the ascending prefix out with
   [read s]. *)
let with_selection xs k read =
  let run s =
    let n = Array.length xs in
    Array.blit xs 0 (scratch_keys s n) 0 n;
    select_in_place s ~n ~k;
    read s
  in
  let s, busy = Domain.DLS.get oneshot in
  if Atomic.compare_and_set busy false true then
    Fun.protect ~finally:(fun () -> Atomic.set busy false) (fun () -> run s)
  else run (scratch_create ())

let smallest_k xs k =
  if k < 0 then invalid_arg "Select.smallest_k: negative k";
  let k = Stdlib.min k (Array.length xs) in
  if k = 0 then [||] else with_selection xs k (fun s -> Array.sub s.sidxs 0 k)

let smallest_k_pairs xs k =
  if k < 0 then invalid_arg "Select.smallest_k_pairs: negative k";
  let k = Stdlib.min k (Array.length xs) in
  if k = 0 then [||]
  else with_selection xs k (fun s -> Array.init k (fun j -> (s.sidxs.(j), s.svals.(j))))

(* Weighted-selection support: fold per-entry factors into a selection's
   weight prefix. The factor of slot [r] is read at [idxs.(r)] — entry
   ids for a dense selection, packed member-order positions when the
   caller's factor table is permuted into the kNN index's layout — so
   the same kernel serves both the gathered and the gather-free path. *)
let scale_by ~weights ~idxs ~factors ~n =
  if n < 0 || n > Array.length weights || n > Array.length idxs then
    invalid_arg "Select.scale_by: bad n";
  for r = 0 to n - 1 do
    let i = Array.unsafe_get idxs r in
    Array.unsafe_set weights r (Array.unsafe_get weights r *. Array.unsafe_get factors i)
  done
