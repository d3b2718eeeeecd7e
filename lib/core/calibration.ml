open Prom_linalg
open Prom_ml
module Pool = Prom_parallel.Pool

(* --- Pruned-index state. ---

   Above a size threshold the per-query distance scans are answered by a
   cluster-pruned exact kNN index instead of a dense scan. Every
   consumer of a query's distances needs at most [ix_query_k]
   neighbours — the selection's keep count, the conformal test's
   LOO-kNN [k] and the ground-truth proxy's [knn_k] — and the index
   returns exactly the ascending (squared distance, index) prefix the
   dense scan would, so verdicts are bit-identical either way. *)

type index_metrics = {
  ix_clusters : Prom_obs.Gauge.t;
  ix_scanned : Prom_obs.Counter.t;
  ix_pruned : Prom_obs.Counter.t;
  ix_rebuilds : Prom_obs.Counter.t;
}

type index_state = {
  knn : Knn_index.t;
  ix_query_k : int;
  mutable ix_metrics : index_metrics option;
}

type cls_entry = { features : Vec.t; label : int; proba : Vec.t }

type cls = {
  entries : cls_entry array;
  config : Config.t;
  scaler : Dataset.Scaler.t;
  tau : float;
  loo_distances : float array;
      (* sorted leave-one-out kNN-distance scores of the calibration set *)
  loo_order : int array;
      (* loo_order.(r) = the entry whose LOO score sits at sorted
         position r, so per-entry weights can be folded into the
         conformal test as suffix sums over the sorted order. Empty when
         the permutation is unknown (a pre-v3 snapshot restore); the
         distance test then stays unweighted. *)
  ent_weights : float array;
      (* per-entry calibration weights (weighted conformal prediction);
         empty means unit weights — the bit-identical unweighted path *)
  loo_suffix : float array;
      (* suffix sums of [ent_weights] in sorted-LOO order (length n+1,
         [loo_suffix.(n)] = 0): [loo_suffix.(r)] is the total weight of
         LOO scores at or above sorted position r — the weighted rank
         the conformal distance test reads. Empty in unit mode or when
         [loo_order] is unknown. *)
  pk_weights : float array;
      (* [ent_weights] permuted into the kNN index's packed member
         order, so the gather-free selection path scales by weights at
         packed positions. Empty in unit mode or when unindexed. *)
  feat_matrix : Featmat.t;
      (* the entries' feature vectors packed row-major, built once so the
         per-query distance scans never rebuild the feature array *)
  mutable cls_index : index_state option;
      (* pruned exact kNN index over [feat_matrix], present when the
         store crossed the indexing threshold; mutable only for
         attaching telemetry after construction *)
}

(* Standardize the similarity space with calibration statistics so the
   temperature of Eq. 1 means the same thing across tasks. *)
let fit_scaler feats =
  Dataset.Scaler.fit (Dataset.create feats (Array.map (fun _ -> 0) feats))

(* Self-calibrated temperature: the paper's [temperature] knob is
   interpreted relative to the calibration set's own distance scale, so
   that w = exp (-d^2 / tau) maps "typical in-distribution distance" to
   a weight near 1 regardless of the feature space. [tau_eff =
   temperature / 100 * median pairwise squared distance]; the default
   500 therefore places the e-fold decay at 5x the median. *)
(* Conformal kNN distance scores (Ishimtsev et al., the paper's [36]):
   the nonconformity of a point is its mean distance to its k nearest
   calibration neighbours; calibrated leave-one-out on the calibration
   set itself, this gives an exactly valid out-of-distribution test. *)
let knn_distance_k = 5

let knn_distance_score fm v = Featmat.knn_mean_dist fm v ~k:knn_distance_k

(* Partial top-k selection instead of the former full sort (see the
   selection pipeline below): how many entries a query keeps. *)
let keep_count ~config n =
  if n < config.Config.select_all_below then n
  else Stdlib.max 1 (int_of_float (config.Config.select_ratio *. float_of_int n))

let default_index_threshold = 4096
let index_threshold_env = "PROM_INDEX_MIN_N"

(* Read per call so tests and benchmarks can flip the policy without
   rebuilding stores created earlier in the process. *)
let index_threshold () =
  match Sys.getenv_opt index_threshold_env with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= 0 -> v
      | _ -> default_index_threshold)
  | None -> default_index_threshold

(* The largest neighbour count any distance consumer asks of a query. *)
let query_k ~config n =
  Stdlib.max (keep_count ~config n) (Stdlib.max knn_distance_k config.Config.knn_k)

(* Index only when the calibration set is large enough to pay off: past
   the threshold, and with the per-query neighbour demand small relative
   to n (otherwise the index would rerank most rows anyway). *)
let maybe_index ~config fm =
  let n = Featmat.length fm in
  if n = 0 then None
  else begin
    let k = query_k ~config n in
    if n >= index_threshold () && 4 * k <= n then
      Some { knn = Knn_index.build fm; ix_query_k = k; ix_metrics = None }
    else None
  end

(* Adopt a deserialized index instead of rebuilding: the structure is
   already validated by [Knn_index.import]; here only the fit against
   the restored entries is checked, so a snapshot of one store can never
   silently answer for another. *)
let attach_index ~config fm = function
  | None -> maybe_index ~config fm
  | Some knn ->
      if Knn_index.length knn <> Featmat.length fm || Knn_index.dim knn <> Featmat.dim fm
      then invalid_arg "Calibration: snapshot index does not match the entries";
      Some { knn; ix_query_k = query_k ~config (Featmat.length fm); ix_metrics = None }

(* Row block granted to one pool task in the O(n^2 . d) preparation
   scans: the task computes its rows' distance block with the symmetric
   tiled kernel and derives every row's statistic from the buffer, so
   the matrix is streamed once per block instead of once per row pair. *)
let prep_block = 16

(* Iterate [f row dists_off buf] over all rows, block by block. [buf]
   holds the block's distances query-major; each row's slice is the same
   per-pair kernel the per-row scans used, so derived statistics are
   bit-identical. Results are concatenated in row order regardless of
   pool scheduling. *)
let map_row_blocks ?pool fm f =
  let n = Featmat.length fm in
  let nblocks = (n + prep_block - 1) / prep_block in
  let blocks =
    Pool.init ?pool ~min_chunk:1 nblocks (fun b ->
        let r0 = b * prep_block in
        let r1 = Stdlib.min n (r0 + prep_block) in
        let buf = Array.make ((r1 - r0) * n) 0.0 in
        Featmat.sq_dists_rows_block fm ~r0 ~r1 buf;
        Array.init (r1 - r0) (fun q -> f (r0 + q) (q * n) buf))
  in
  Array.concat (Array.to_list blocks)

(* Leave-one-out kNN mean distance of [row], read from its slice of the
   block buffer: same bounded-heap selection (ascending, ties by index)
   and same ascending square-root summation as
   [Featmat.knn_mean_dist_rows]. *)
let loo_knn_mean fm ~k row off buf =
  let n = Featmat.length fm in
  let h = Select.heap_create (Stdlib.min k (Stdlib.max 0 (n - 1))) in
  for i = 0 to n - 1 do
    if i <> row then Select.offer h (Array.unsafe_get buf (off + i)) i
  done;
  let near = Select.drain_sorted h in
  let m = Array.length near in
  if m = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    Array.iter (fun (_, sq) -> acc := !acc +. sqrt sq) near;
    !acc /. float_of_int m
  end

(* Sort LOO scores ascending while tracking which entry produced each
   sorted slot. Ties break by entry id; tied slots hold bit-identical
   values, so the sorted score array is exactly what [Array.sort
   Float.compare] over the bare scores produced before the permutation
   was tracked. *)
let sort_loo_with_order scores =
  let n = Array.length scores in
  let order = Array.init n (fun i -> i) in
  let pairs = Array.map (fun i -> (scores.(i), i)) order in
  Array.sort
    (fun (s1, i1) (s2, i2) ->
      let c = Float.compare s1 s2 in
      if c <> 0 then c else Stdlib.compare i1 i2)
    pairs;
  Array.iteri
    (fun r (s, i) ->
      scores.(r) <- s;
      order.(r) <- i)
    pairs;
  (scores, order)

(* The O(n^2) leave-one-out scan, fanned across the pool in row blocks;
   each block is independent, so chunked evaluation is deterministic.
   Returns the ascending scores plus the sorted-position -> entry
   permutation. *)
let loo_distance_scores ?pool fm =
  sort_loo_with_order (map_row_blocks ?pool fm (loo_knn_mean fm ~k:knn_distance_k))

(* First position in a sorted array whose value is >= [x] ([n] when
   every value is smaller) — an iterative lower-bound loop, shared by
   the dense and index-backed conformal tests (both reach it through
   [distance_pvalue_of]). *)
let first_geq sorted x =
  let lo = ref 0 and hi = ref (Array.length sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sorted.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

(* The conformal distance p-value, in unweighted or weighted-rank form.
   Unweighted: p = (#{LOO >= score} + 1) / (n + 1). Weighted (Barber et
   al., "beyond exchangeability"): the count is replaced by the total
   weight of the LOO scores at or above the test score, read from
   [suffix] — the weight suffix sums in sorted-LOO order — so
   p = (W_>= + 1) / (W_total + 1); the +1 is the test sample's own unit
   weight. With unit weights the suffix sums are exact small integers,
   so [suffix.(pos) +. 1.0] equals [float_of_int (at_least + 1)] bit
   for bit and the two forms coincide exactly; callers pass an empty
   [suffix] to take the count-based path. *)
let distance_pvalue ?(suffix = [||]) ~loo score =
  let n = Array.length loo in
  if n = 0 then 1.0
  else begin
    let weighted = Array.length suffix > 0 in
    if weighted && Array.length suffix <> n + 1 then
      invalid_arg "Calibration.distance_pvalue: suffix length must be n + 1";
    (* rank of the test score, by binary search on the sorted array *)
    let pos = first_geq loo score in
    let at_least_w = if weighted then suffix.(pos) else float_of_int (n - pos) in
    let total_w = if weighted then suffix.(0) else float_of_int n in
    let p = (at_least_w +. 1.0) /. (total_w +. 1.0) in
    (* Beyond the calibration tail every score would share the floor
       1/(W+1); extend with an exponential tail so farther points get
       strictly smaller p-values and the significance level keeps
       controlling how far out the rejection boundary sits. *)
    let max_loo = loo.(n - 1) in
    if at_least_w = 0.0 && max_loo > 0.0 && score > max_loo then
      p *. exp (-4.0 *. ((score /. max_loo) -. 1.0))
    else p
  end

(* Pairwise-median sampling for the temperature. *)
let effective_tau ?pool config fm =
  let n = Featmat.length fm in
  let d2s =
    if n < 2 then [| 1.0 |]
    else begin
      let step = Stdlib.max 1 (n * n / 4000) in
      if step = 1 then
        (* Every pair is sampled: compute the upper triangle from the
           block buffers instead of one kernel call per pair. The median
           is order-independent, and each cell matches the per-pair
           kernel bit for bit. *)
        map_row_blocks ?pool fm (fun i off buf ->
            Array.init (n - 1 - i) (fun r -> buf.(off + i + 1 + r)))
        |> Array.to_list |> Array.concat
      else begin
        (* Sparse sampling: computing full blocks would do [step] times
           the work, so keep the per-pair scan. The sampled pair set is
           defined by the pair's position in the row-major enumeration —
           [offset i + (j - i)] is exactly the counter value the
           sequential double loop would have reached — so the parallel
           scan samples the same pairs the sequential one did. *)
        let offset i = (i * (n - 1)) - (i * (i - 1) / 2) in
        let rows =
          Pool.init ?pool ~min_chunk:64 (n - 1) (fun i ->
              let base = offset i in
              let acc = ref [] in
              for j = i + 1 to n - 1 do
                if (base + j - i) mod step = 0 then
                  acc := Featmat.sq_dist_rows fm i j :: !acc
              done;
              Array.of_list !acc)
        in
        match Array.concat (Array.to_list rows) with
        | [||] -> [| 1.0 |]
        | arr -> arr
      end
    end
  in
  let med = Stats.median d2s in
  let med = if med <= 0.0 then 1.0 else med in
  config.Config.temperature /. 100.0 *. med

let prepare_classification ?pool ~config ~model ~feature_of (d : int Dataset.t) =
  Config.validate config;
  if Dataset.length d = 0 then invalid_arg "Calibration: empty calibration dataset";
  let feats = Array.map feature_of d.x in
  let scaler = fit_scaler feats in
  let std_feats = Array.map (Dataset.Scaler.transform scaler) feats in
  let feat_matrix = Featmat.of_rows std_feats in
  let entries =
    Array.mapi
      (fun i x ->
        { features = std_feats.(i); label = d.y.(i); proba = model.Model.predict_proba x })
      d.x
  in
  let loo_distances, loo_order = loo_distance_scores ?pool feat_matrix in
  {
    entries;
    config;
    scaler;
    tau = effective_tau ?pool config feat_matrix;
    loo_distances;
    loo_order;
    ent_weights = [||];
    loo_suffix = [||];
    pk_weights = [||];
    feat_matrix;
    cls_index = maybe_index ~config feat_matrix;
  }

let standardize_cls t v = Dataset.Scaler.transform t.scaler v

(* Per-entry calibration weights must be a full, finite, non-negative
   vector — one NaN or negative weight would poison every rank sum
   downstream. *)
let check_weights name n w =
  if Array.length w <> n then
    invalid_arg (name ^ ": one weight per calibration entry required");
  Array.iter
    (fun x ->
      if not (x >= 0.0 && x < infinity) then
        invalid_arg (name ^ ": weights must be finite and non-negative"))
    w

(* A permutation of [0, n): each slot hit exactly once. *)
let check_order name n order =
  if Array.length order <> n then invalid_arg (name ^ ": order length mismatch");
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then invalid_arg (name ^ ": not a permutation");
      seen.(i) <- true)
    order

(* Fold a fresh per-entry weight vector into the store: the suffix sums
   over the sorted-LOO order feed the weighted conformal distance test,
   and the packed twin lets the gather-free selection path scale by
   weights at packed positions. An empty vector resets to unit weights
   (the bit-identical unweighted pipeline). When the store predates the
   LOO permutation (pre-v3 snapshot), the distance test keeps its
   unweighted form — only the committee rank sums and the residual
   quantile see the weights. *)
let reweight_cls t w =
  if Array.length w = 0 then
    { t with ent_weights = [||]; loo_suffix = [||]; pk_weights = [||] }
  else begin
    let n = Array.length t.entries in
    check_weights "Calibration.reweight_cls" n w;
    let w = Array.copy w in
    let loo_suffix =
      if Array.length t.loo_order = n then
        Stats.suffix_sums (Array.map (fun e -> w.(e)) t.loo_order)
      else [||]
    in
    let pk_weights =
      match t.cls_index with
      | None -> [||]
      | Some st -> Array.map (fun i -> w.(i)) (Knn_index.member_order st.knn)
    in
    { t with ent_weights = w; loo_suffix; pk_weights }
  end

(* Snapshot restore: the expensive O(n^2 . d) preparation products (tau,
   LOO distances) are taken as given; only the packed feature matrix is
   rebuilt, a cheap O(n . d) copy of the entries' feature rows. The
   weight derivatives (suffix sums, packed twin) are recomputed from the
   persisted weight vector rather than persisted themselves. *)
let restore_cls ?index ?(loo_order = [||]) ?(ent_weights = [||]) ~entries ~config
    ~scaler ~tau ~loo_distances () =
  Config.validate config;
  if Array.length entries = 0 then invalid_arg "Calibration.restore_cls: no entries";
  if not (tau > 0.0) then invalid_arg "Calibration.restore_cls: tau must be positive";
  if Array.length loo_order > 0 then begin
    if Array.length loo_distances <> Array.length entries then
      invalid_arg "Calibration.restore_cls: LOO permutation without matching scores";
    check_order "Calibration.restore_cls" (Array.length entries) loo_order
  end;
  let feat_matrix = Featmat.of_rows (Array.map (fun e -> e.features) entries) in
  let t =
    {
      entries;
      config;
      scaler;
      tau;
      loo_distances;
      loo_order;
      ent_weights = [||];
      loo_suffix = [||];
      pk_weights = [||];
      feat_matrix;
      cls_index = attach_index ~config feat_matrix index;
    }
  in
  if Array.length ent_weights = 0 then t else reweight_cls t ent_weights

type reg_entry = {
  rfeatures : Vec.t;
  target : float;
  rpred : float;
  cluster : int;
  rproxy : float;
  rspread : float;
}

type reg = {
  rentries : reg_entry array;
  rconfig : Config.t;
  clusters : Kmeans.t;
  n_clusters : int;
  rscaler : Dataset.Scaler.t;
  rtau : float;
  rloo_distances : float array;
  rloo_order : int array;  (* see [cls.loo_order] *)
  rent_weights : float array;  (* see [cls.ent_weights] *)
  rloo_suffix : float array;  (* see [cls.loo_suffix] *)
  rpk_weights : float array;  (* see [cls.pk_weights] *)
  rfeat_matrix : Featmat.t;
  mutable reg_index : index_state option;  (* see [cls_index] *)
  rpk_targets : float array;
  rpk_clusters : int array;
  rpk_resid : float array;
      (* per-entry target / cluster / |rpred - target| tables permuted
         into the index's packed member order ([tbl.(m)] describes entry
         [member_order.(m)]), so the indexed query path reads them at the
         candidates' packed positions — tile-local accesses instead of
         an O(n)-spread gather. Empty when the store is unindexed; the
         index is never replaced within a record (growth builds a new
         record), so the tables cannot go stale. *)
}

(* Build the packed sidecars for a (possibly absent) index. Values are
   copied — and the residual folded — entry by entry in packed order;
   each slot holds the exact floats the entry-order reads produce, so
   consumers switching to these tables change only the memory they
   touch, never a result bit. *)
let reg_packed_tables rentries = function
  | None -> ([||], [||], [||])
  | Some st ->
      let order = Knn_index.member_order st.knn in
      let n = Array.length order in
      let targets = Array.make n 0.0 in
      let clusters = Array.make n 0 in
      let resid = Array.make n 0.0 in
      for m = 0 to n - 1 do
        let e = rentries.(order.(m)) in
        targets.(m) <- e.target;
        clusters.(m) <- e.cluster;
        resid.(m) <- abs_float (e.rpred -. e.target)
      done;
      (targets, clusters, resid)

let prepare_regression ?pool ?n_clusters ~config ~model ~feature_of ~seed
    (d : float Dataset.t) =
  Config.validate config;
  let n = Dataset.length d in
  if n = 0 then invalid_arg "Calibration: empty calibration dataset";
  let scaler = fit_scaler (Array.map feature_of d.x) in
  let feats = Array.map (fun x -> Dataset.Scaler.transform scaler (feature_of x)) d.x in
  let rfeat_matrix = Featmat.of_rows feats in
  let rng = Rng.create seed in
  let k =
    match n_clusters with
    | Some k ->
        if k < 1 || k > n then invalid_arg "Calibration: n_clusters out of range";
        k
    | None ->
        if n < 4 then 1
        else
          let k_max = Stdlib.min 20 (n / 2) in
          (Gap_statistic.select rng feats ~k_min:2 ~k_max).best_k
  in
  let clusters = Kmeans.fit (Rng.split rng) feats ~k in
  (* Leave-one-out k-NN proxy targets and neighbourhood spreads,
     mirroring the test-time ground-truth approximation so both sides of
     Eq. 2 use the same estimator. The O(n^2) scan runs over the same
     row-block distance buffers as [loo_distance_scores]; the heap
     selection matches [Featmat.nearest ~exclude] and neighbour targets
     are accumulated farthest-first, matching the order the sequential
     reference produced. *)
  let loo_proxy row off buf =
    let k = config.Config.knn_k in
    let h = Select.heap_create (Stdlib.min k (Stdlib.max 0 (n - 1))) in
    for i = 0 to n - 1 do
      if i <> row then Select.offer h (Array.unsafe_get buf (off + i)) i
    done;
    let near = Select.drain_sorted h in
    match Array.length near with
    | 0 -> (d.y.(row), 0.0)
    | m ->
        let arr = Array.init m (fun r -> d.y.(fst near.(m - 1 - r))) in
        (Stats.mean arr, if m > 1 then Stats.std arr else 0.0)
  in
  let proxies = map_row_blocks ?pool rfeat_matrix loo_proxy in
  let rentries =
    Array.mapi
      (fun i x ->
        let rproxy, rspread = proxies.(i) in
        {
          rfeatures = feats.(i);
          target = d.y.(i);
          rpred = model.Model.predict x;
          cluster = clusters.assignments.(i);
          rproxy;
          rspread;
        })
      d.x
  in
  let reg_index = maybe_index ~config rfeat_matrix in
  let rpk_targets, rpk_clusters, rpk_resid = reg_packed_tables rentries reg_index in
  let rloo_distances, rloo_order = loo_distance_scores ?pool rfeat_matrix in
  {
    rentries;
    rconfig = config;
    clusters;
    n_clusters = k;
    rscaler = scaler;
    rtau = effective_tau ?pool config rfeat_matrix;
    rloo_distances;
    rloo_order;
    rent_weights = [||];
    rloo_suffix = [||];
    rpk_weights = [||];
    rfeat_matrix;
    reg_index;
    rpk_targets;
    rpk_clusters;
    rpk_resid;
  }

let standardize_reg t v = Dataset.Scaler.transform t.rscaler v

(* See [reweight_cls]. *)
let reweight_reg t w =
  if Array.length w = 0 then
    { t with rent_weights = [||]; rloo_suffix = [||]; rpk_weights = [||] }
  else begin
    let n = Array.length t.rentries in
    check_weights "Calibration.reweight_reg" n w;
    let w = Array.copy w in
    let rloo_suffix =
      if Array.length t.rloo_order = n then
        Stats.suffix_sums (Array.map (fun e -> w.(e)) t.rloo_order)
      else [||]
    in
    let rpk_weights =
      match t.reg_index with
      | None -> [||]
      | Some st -> Array.map (fun i -> w.(i)) (Knn_index.member_order st.knn)
    in
    { t with rent_weights = w; rloo_suffix; rpk_weights }
  end

let restore_reg ?index ?(rloo_order = [||]) ?(rent_weights = [||]) ~rentries ~rconfig
    ~clusters ~n_clusters ~rscaler ~rtau ~rloo_distances () =
  Config.validate rconfig;
  if Array.length rentries = 0 then invalid_arg "Calibration.restore_reg: no entries";
  if not (rtau > 0.0) then invalid_arg "Calibration.restore_reg: tau must be positive";
  if n_clusters < 1 then invalid_arg "Calibration.restore_reg: n_clusters out of range";
  if Array.length rloo_order > 0 then begin
    if Array.length rloo_distances <> Array.length rentries then
      invalid_arg "Calibration.restore_reg: LOO permutation without matching scores";
    check_order "Calibration.restore_reg" (Array.length rentries) rloo_order
  end;
  let rfeat_matrix = Featmat.of_rows (Array.map (fun e -> e.rfeatures) rentries) in
  let reg_index = attach_index ~config:rconfig rfeat_matrix index in
  let rpk_targets, rpk_clusters, rpk_resid = reg_packed_tables rentries reg_index in
  let t =
    {
      rentries;
      rconfig;
      clusters;
      n_clusters;
      rscaler;
      rtau;
      rloo_distances;
      rloo_order;
      rent_weights = [||];
      rloo_suffix = [||];
      rpk_weights = [||];
      rfeat_matrix;
      reg_index;
      rpk_targets;
      rpk_clusters;
      rpk_resid;
    }
  in
  if Array.length rent_weights = 0 then t else reweight_reg t rent_weights

type 'e selected = { index : int; entry : 'e; weight : float; distance : float }

(* [sel_pos]/[sel_packed]: when the selection is the pruned index's
   candidate prefix, [sel_pos.(r)] carries the [r]-th kept entry's
   packed position so table reads can stay in the index's
   cluster-contiguous order; [sel_idxs] still holds entry ids either
   way, so consumers without packed tables ignore the positions. *)
type selection = {
  sel_idxs : int array;
  sel_weights : float array;
  sel_count : int;
  sel_pos : int array;
  sel_packed : bool;
}

(* Per-domain query workspace: the shared distance buffers, the
   selection's permutation arrays, the weight buffer and the kNN heap
   are reused across queries (one workspace per domain, so pooled batch
   evaluation never shares one), keeping the per-query hot path free of
   heap churn. Queries are evaluated synchronously within a domain, so
   reuse is safe. *)
type query_scratch = {
  sel : Select.scratch;
  aux : Select.scratch;
      (* second workspace for sorts that must not clobber a live
         selection (e.g. the interval quantile's residual sort) *)
  mutable weights : float array;
  mutable dists : float array;
      (* the per-query shared squared-distance scan (Eq. 1 distances,
         conformal kNN, cluster argmin all read this one buffer) *)
  mutable block : float array;
      (* tile-sized query-major distance block for batched evaluation *)
  knn_heap : Select.heap;
  mutable knn_idxs : int array;
  mutable knn_vals : float array;
  mutable cand_idxs : int array;
  mutable cand_vals : float array;
      (* the pruned index's candidate prefix(es): one [ix_query_k]-sized
         slice per in-flight query of the current tile *)
  mutable cand_pos : int array;
      (* each candidate's packed position in the index's member order,
         alongside [cand_idxs] — the key into the packed sidecar tables
         the gather-free p-value pass reads *)
  mutable selpos : int array;
      (* the kept prefix of packed positions staged with a pruned
         selection, mirroring the selection workspace's index prefix *)
}

let query_scratch : query_scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        sel = Select.scratch_create ();
        aux = Select.scratch_create ();
        weights = [||];
        dists = [||];
        block = [||];
        knn_heap = Select.heap_create 0;
        knn_idxs = [||];
        knn_vals = [||];
        cand_idxs = [||];
        cand_vals = [||];
        cand_pos = [||];
        selpos = [||];
      })

(* A query's distances against the calibration entries, in one of two
   equivalent forms. [Dense] is the full squared-distance vector — a
   view into a per-domain buffer, computed once per query. [Pruned] is
   the index's answer: the ascending (squared distance, row) prefix of
   length [ix_query_k] — exactly the prefix every consumer reads from
   the dense form, so the two are interchangeable bit for bit. A pruned
   view keeps the query and matrix so a consumer that (exceptionally)
   needs more neighbours than the prefix holds can fall back to a dense
   scan. Views are valid until the next distance computation on the
   same domain. *)
type dense = { dbuf : float array; doff : int; dlen : int }

type pruned = {
  pidxs : int array;
  pvals : float array;
  ppos : int array;
      (* each candidate's packed position ([Knn_index.member_order]
         index), so consumers can read sidecar tables permuted into
         packed order instead of gathering entry-order tables at random *)
  poff : int;
  pcount : int;
  pn : int;  (* full calibration size, for [keep_count] *)
  pquery : Vec.t;
  pfm : Featmat.t;
}

type dists = Dense of dense | Pruned of pruned

let dense_scan fm v =
  let qs = Domain.DLS.get query_scratch in
  let n = Featmat.length fm in
  if Array.length qs.dists < n then qs.dists <- Array.make (Stdlib.max n 1) 0.0;
  Featmat.sq_dists_into fm v qs.dists;
  { dbuf = qs.dists; doff = 0; dlen = n }

let query_distances_of fm v = Dense (dense_scan fm v)

(* The tile form: one cache-blocked kernel call for the whole query
   tile, returning per-query views into the block buffer. The views
   stay valid while the tile's queries are evaluated (per-query
   consumers use the other scratch buffers), until the next block on
   the same domain. *)
let query_distances_block_of fm queries =
  let qs = Domain.DLS.get query_scratch in
  let n = Featmat.length fm in
  let nq = Array.length queries in
  if Array.length qs.block < nq * n then qs.block <- Array.make (Stdlib.max (nq * n) 1) 0.0;
  Featmat.sq_dists_block fm queries qs.block;
  Array.init nq (fun q -> Dense { dbuf = qs.block; doff = q * n; dlen = n })

(* --- Index-backed query paths. --- *)

let ensure_cand qs cap =
  if Array.length qs.cand_idxs < cap then begin
    qs.cand_idxs <- Array.make cap 0;
    qs.cand_vals <- Array.make cap 0.0;
    qs.cand_pos <- Array.make cap 0
  end

let record_index_metrics st acc =
  match st.ix_metrics with
  | None -> ()
  | Some m ->
      Prom_obs.Counter.add m.ix_scanned (float_of_int acc.Knn_index.ac_scanned);
      Prom_obs.Counter.add m.ix_pruned (float_of_int acc.Knn_index.ac_rows_pruned)

let metrics_acc st =
  match st.ix_metrics with Some _ -> Some (Knn_index.acc_create ()) | None -> None

(* Pruned views only when the prefix is a strict subset of the rows; a
   query_k covering the whole matrix would just be a slower dense
   scan. *)
let index_applies st fm = st.ix_query_k < Featmat.length fm

let query_pruned st fm v =
  let n = Featmat.length fm in
  let k = Stdlib.min st.ix_query_k n in
  let qs = Domain.DLS.get query_scratch in
  ensure_cand qs k;
  let acc = metrics_acc st in
  let m =
    Knn_index.query_into ?stats:acc ~pos:qs.cand_pos st.knn fm v ~k ~idxs:qs.cand_idxs
      ~vals:qs.cand_vals ~off:0
  in
  (match acc with Some a -> record_index_metrics st a | None -> ());
  Pruned
    {
      pidxs = qs.cand_idxs;
      pvals = qs.cand_vals;
      ppos = qs.cand_pos;
      poff = 0;
      pcount = m;
      pn = n;
      pquery = v;
      pfm = fm;
    }

let query_pruned_block st fm queries =
  let n = Featmat.length fm in
  let k = Stdlib.min st.ix_query_k n in
  let nq = Array.length queries in
  let qs = Domain.DLS.get query_scratch in
  ensure_cand qs (nq * k);
  let acc = metrics_acc st in
  let views =
    Array.init nq (fun q ->
        let v = queries.(q) in
        let m =
          Knn_index.query_into ?stats:acc ~pos:qs.cand_pos st.knn fm v ~k
            ~idxs:qs.cand_idxs ~vals:qs.cand_vals ~off:(q * k)
        in
        Pruned
          {
            pidxs = qs.cand_idxs;
            pvals = qs.cand_vals;
            ppos = qs.cand_pos;
            poff = q * k;
            pcount = m;
            pn = n;
            pquery = v;
            pfm = fm;
          })
  in
  (match acc with Some a -> record_index_metrics st a | None -> ());
  views

let query_distances_ix index fm v =
  match index with
  | Some st when index_applies st fm -> query_pruned st fm v
  | _ -> query_distances_of fm v

let query_distances_block_ix index fm queries =
  match index with
  | Some st when index_applies st fm && Array.length queries > 0 ->
      query_pruned_block st fm queries
  | _ -> query_distances_block_of fm queries

(* Bounded kNN selection over the shared buffer: offers in index order
   (the order the matrix scans used) into the reusable per-domain heap
   and drains in place — ascending (squared distance, index), exactly
   [Featmat.nearest]'s ordering, without the per-call pair array. On
   return the first [m] slots of [knn_idxs]/[knn_vals] hold the
   neighbours; [m] is returned. *)
let knn_from_dists qs d ~k =
  let k = Stdlib.min k d.dlen in
  Select.heap_reset qs.knn_heap k;
  for i = 0 to d.dlen - 1 do
    Select.offer qs.knn_heap (Array.unsafe_get d.dbuf (d.doff + i)) i
  done;
  if Array.length qs.knn_idxs < k then begin
    qs.knn_idxs <- Array.make (Stdlib.max k 1) 0;
    qs.knn_vals <- Array.make (Stdlib.max k 1) 0.0
  end;
  Select.drain_into qs.knn_heap ~idxs:qs.knn_idxs ~vals:qs.knn_vals

(* Mean distance to the k nearest entries, from the shared buffer: sums
   the square roots ascending, mirroring [Featmat.knn_mean_dist]. *)
let knn_mean_from_dists qs d ~k =
  let m = knn_from_dists qs d ~k in
  if m = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for r = 0 to m - 1 do
      acc := !acc +. sqrt qs.knn_vals.(r)
    done;
    !acc /. float_of_int m
  end

(* Top-k selection instead of the former full sort: distances are
   scanned once (from the cached matrix when available) and
   [Select.select_in_place] orders them in O(n) radix passes. Selection
   runs on squared distances — the ordering is the same — and the square
   root is taken only for the kept entries, whose weights reproduce the
   exp(-d^2/tau) of the sort-based reference bit for bit. On return the
   workspace prefix holds the ascending (squared distance, index) pairs
   of the kept entries. *)
let select_core scratch ?featmat ~config entries ~feature_of_entry test_features =
  let n = Array.length entries in
  let keep = keep_count ~config n in
  let sq = Select.scratch_keys scratch n in
  (match featmat with
  | Some fm ->
      if Featmat.length fm <> n then
        invalid_arg "Calibration.select_subset: matrix/entries size mismatch";
      Featmat.sq_dists_into fm test_features sq
  | None ->
      for i = 0 to n - 1 do
        sq.(i) <- Distance.sq_euclidean (feature_of_entry entries.(i)) test_features
      done);
  Select.select_in_place scratch ~n ~k:keep;
  keep

(* The [?tau] override skips [Config.validate], so guard it here: a
   non-positive (or NaN) tau makes [exp (-d²/tau)] collapse to 0/0 = NaN
   for zero-distance neighbours, and one NaN weight poisons every
   p-value accumulator downstream. *)
let resolve_tau tau config =
  let t = match tau with Some t -> t | None -> config.Config.temperature in
  if not (t > 0.0) then invalid_arg "Calibration.select: tau must be positive";
  t

let select_subset ?tau ?featmat ?(entry_weights = [||]) ~config entries
    ~feature_of_entry test_features =
  let tau = resolve_tau tau config in
  if Array.length entries = 0 then [||]
  else begin
    let scratch = (Domain.DLS.get query_scratch).sel in
    let keep = select_core scratch ?featmat ~config entries ~feature_of_entry test_features in
    let vals = Select.scratch_vals scratch and idxs = Select.scratch_idxs scratch in
    let weighted = Array.length entry_weights > 0 in
    Array.init keep (fun r ->
        let i = idxs.(r) in
        let dist = sqrt vals.(r) in
        let weight = exp (-.(dist *. dist) /. tau) in
        (* Calibration weights multiply into the Eq. 1 weight (weighted
           conformal prediction); the unit path leaves the product
           untaken so unweighted selections stay bit-identical. *)
        let weight = if weighted then weight *. entry_weights.(i) else weight in
        { index = i; entry = entries.(i); weight; distance = dist })
  end

(* Allocation-free variant for the per-query hot path. Materializing the
   [selected] record array costs far more than it looks: at typical
   sizes (hundreds of entries) the pointer array is allocated directly
   on the major heap, and filling it with freshly minted minor-heap
   records drives the write barrier hard enough to force a minor
   collection per call — each of which is a stop-the-world handshake
   every domain must join. The packed form instead reuses a per-domain
   index buffer and weight buffer; the returned view is a few words on
   the minor heap. The buffers are valid until the next selection on the
   same domain, which is exactly the lifetime of one query evaluation. *)
let select_packed ?tau ?featmat ~config entries ~feature_of_entry test_features =
  let tau = resolve_tau tau config in
  if Array.length entries = 0 then { sel_idxs = [||]; sel_weights = [||]; sel_count = 0; sel_pos = [||]; sel_packed = false }
  else begin
    let qs = Domain.DLS.get query_scratch in
    let keep = select_core qs.sel ?featmat ~config entries ~feature_of_entry test_features in
    let vals = Select.scratch_vals qs.sel in
    if Array.length qs.weights < keep then qs.weights <- Array.make (Array.length vals) 0.0;
    let weights = qs.weights in
    for r = 0 to keep - 1 do
      let dist = sqrt vals.(r) in
      weights.(r) <- exp (-.(dist *. dist) /. tau)
    done;
    {
      sel_idxs = Select.scratch_idxs qs.sel;
      sel_weights = weights;
      sel_count = keep;
      sel_pos = [||];
      sel_packed = false;
    }
  end

let assign_cluster reg v =
  (* Label by the nearest calibration sample's cluster, falling back to
     the nearest centroid when entries are somehow empty. *)
  match Array.length reg.rentries with
  | 0 -> Kmeans.assign reg.clusters v
  | _ -> reg.rentries.(Featmat.argmin_sq reg.rfeat_matrix v).cluster

let knn_truth reg v ~k =
  let idx = Featmat.nearest reg.rfeat_matrix v ~k in
  let targets = Array.map (fun (i, _) -> reg.rentries.(i).target) idx in
  let mean = Stats.mean targets in
  let spread = if Array.length targets > 1 then Stats.std targets else 0.0 in
  (mean, spread)

let distance_pvalue_cls t v =
  distance_pvalue ~suffix:t.loo_suffix ~loo:t.loo_distances
    (knn_distance_score t.feat_matrix v)

let distance_pvalue_reg t v =
  distance_pvalue ~suffix:t.rloo_suffix ~loo:t.rloo_distances
    (knn_distance_score t.rfeat_matrix v)

(* --- Shared per-query distance pipeline. ---

   The consumers below all derive their result from one [dists] view —
   the distance vector the independent per-concern scans above each
   recomputed. Every consumer replays its independent counterpart's
   exact arithmetic over the buffer (same selection, same accumulation
   order), so verdicts are bit-identical; only the number of matrix
   scans changes. *)

let query_distances_cls t v = query_distances_ix t.cls_index t.feat_matrix v
let query_distances_reg t v = query_distances_ix t.reg_index t.rfeat_matrix v
let query_distances_block_cls t vs = query_distances_block_ix t.cls_index t.feat_matrix vs
let query_distances_block_reg t vs = query_distances_block_ix t.reg_index t.rfeat_matrix vs

(* [select_packed] fed from the shared buffer instead of its own scan:
   the keys are blitted into the selection workspace (selection
   destroys key order, and the buffer must outlive it for the other
   consumers), then selected and weighted exactly as [select_packed]
   does. *)
let select_packed_dense tau ~entry_weights ~config d =
  let n = d.dlen in
  if n = 0 then { sel_idxs = [||]; sel_weights = [||]; sel_count = 0; sel_pos = [||]; sel_packed = false }
  else begin
    let qs = Domain.DLS.get query_scratch in
    let keep = keep_count ~config n in
    let sq = Select.scratch_keys qs.sel n in
    Array.blit d.dbuf d.doff sq 0 n;
    Select.select_in_place qs.sel ~n ~k:keep;
    let vals = Select.scratch_vals qs.sel in
    if Array.length qs.weights < keep then qs.weights <- Array.make (Array.length vals) 0.0;
    let weights = qs.weights in
    for r = 0 to keep - 1 do
      let dist = sqrt vals.(r) in
      weights.(r) <- exp (-.(dist *. dist) /. tau)
    done;
    (* Calibration weights (weighted conformal mode) fold into the Eq. 1
       weights; the empty vector is unit mode and skips the pass. *)
    if Array.length entry_weights > 0 then
      Select.scale_by ~weights ~idxs:(Select.scratch_idxs qs.sel)
        ~factors:entry_weights ~n:keep;
    {
      sel_idxs = Select.scratch_idxs qs.sel;
      sel_weights = weights;
      sel_count = keep;
      sel_pos = [||];
      sel_packed = false;
    }
  end

(* The pruned form: the index's candidate prefix IS the selection — the
   same ascending (squared distance, index) order the dense path's
   [select_in_place] produces — so the kept slice is staged in the
   selection workspace and weighted with identical arithmetic. A keep
   count exceeding the prefix (a config change after the index was
   sized) falls back to the dense scan; results stay bit-identical
   either way. *)
let select_packed_dists ?tau ?(entry_weights = [||]) ?(packed_weights = [||]) ~config d =
  let tau = resolve_tau tau config in
  match d with
  | Dense d -> select_packed_dense tau ~entry_weights ~config d
  | Pruned p ->
      let keep = keep_count ~config p.pn in
      if keep > p.pcount then
        select_packed_dense tau ~entry_weights ~config (dense_scan p.pfm p.pquery)
      else begin
        let qs = Domain.DLS.get query_scratch in
        ignore (Select.scratch_keys qs.sel keep : float array);
        let vals = Select.scratch_vals qs.sel and idxs = Select.scratch_idxs qs.sel in
        Array.blit p.pvals p.poff vals 0 keep;
        Array.blit p.pidxs p.poff idxs 0 keep;
        if Array.length qs.selpos < keep then qs.selpos <- Array.make (Array.length vals) 0;
        Array.blit p.ppos p.poff qs.selpos 0 keep;
        if Array.length qs.weights < keep then qs.weights <- Array.make (Array.length vals) 0.0;
        let weights = qs.weights in
        for r = 0 to keep - 1 do
          let dist = sqrt vals.(r) in
          weights.(r) <- exp (-.(dist *. dist) /. tau)
        done;
        (* The calibration-weight pass reads the packed twin at packed
           positions when the store carries one (gather-free, same floats
           by construction), the entry-order vector otherwise. *)
        if Array.length entry_weights > 0 then begin
          if Array.length packed_weights > 0 then
            Select.scale_by ~weights ~idxs:qs.selpos ~factors:packed_weights ~n:keep
          else Select.scale_by ~weights ~idxs ~factors:entry_weights ~n:keep
        end;
        {
          sel_idxs = idxs;
          sel_weights = weights;
          sel_count = keep;
          sel_pos = qs.selpos;
          sel_packed = true;
        }
      end

(* Conformal kNN mean distance from either view. The pruned prefix is
   ascending, so summing its first [m] square roots replays the dense
   path's accumulation order exactly. *)
let conformal_mean_of_dists d =
  match d with
  | Dense d ->
      let qs = Domain.DLS.get query_scratch in
      knn_mean_from_dists qs d ~k:knn_distance_k
  | Pruned p ->
      let m = Stdlib.min knn_distance_k p.pn in
      if m > p.pcount then begin
        let qs = Domain.DLS.get query_scratch in
        knn_mean_from_dists qs (dense_scan p.pfm p.pquery) ~k:knn_distance_k
      end
      else if m = 0 then 0.0
      else begin
        let acc = ref 0.0 in
        for r = 0 to m - 1 do
          acc := !acc +. sqrt p.pvals.(p.poff + r)
        done;
        !acc /. float_of_int m
      end

let distance_pvalue_cls_dists t d =
  distance_pvalue ~suffix:t.loo_suffix ~loo:t.loo_distances (conformal_mean_of_dists d)

let distance_pvalue_reg_dists t d =
  distance_pvalue ~suffix:t.rloo_suffix ~loo:t.rloo_distances
    (conformal_mean_of_dists d)

(* [knn_truth] from the buffer: the neighbour set and its ascending
   order match [Featmat.nearest], and the targets array hands mean and
   spread to the same [Stats] calls, so the estimate is bit-identical.
   The targets array is [k] floats on the minor heap — the boxed
   (index, distance) tuple array of the independent path is gone. The
   pruned view reads the same neighbours straight from its prefix. *)
let knn_truth_dists reg d ~k =
  let finish m target_of =
    let targets = Array.init m target_of in
    let mean = Stats.mean targets in
    let spread = if m > 1 then Stats.std targets else 0.0 in
    (mean, spread)
  in
  match d with
  | Dense dd ->
      let qs = Domain.DLS.get query_scratch in
      let m = knn_from_dists qs dd ~k in
      finish m (fun r -> reg.rentries.(qs.knn_idxs.(r)).target)
  | Pruned p ->
      let m = Stdlib.min k p.pn in
      if m > p.pcount then begin
        let qs = Domain.DLS.get query_scratch in
        let m = knn_from_dists qs (dense_scan p.pfm p.pquery) ~k in
        finish m (fun r -> reg.rentries.(qs.knn_idxs.(r)).target)
      end
      else if Array.length reg.rpk_targets > 0 then
        (* Packed sidecar: same floats at the candidates' packed
           positions, read tile-locally instead of gathered across the
           entry array. *)
        finish m (fun r -> reg.rpk_targets.(p.ppos.(p.poff + r)))
      else finish m (fun r -> reg.rentries.(p.pidxs.(p.poff + r)).target)

(* [assign_cluster]'s nearest-neighbour argmin read from the buffer:
   strict [<] with ascending index, first minimum wins, exactly
   [Featmat.argmin_sq]. The pruned prefix leads with exactly that row —
   the least (distance, index) — so its head is the same argmin. *)
let assign_cluster_dists reg d =
  match d with
  | Dense d ->
      if d.dlen = 0 then invalid_arg "Calibration.assign_cluster_dists: empty calibration";
      let best = ref 0 and best_d = ref infinity in
      for i = 0 to d.dlen - 1 do
        let v = Array.unsafe_get d.dbuf (d.doff + i) in
        if v < !best_d then begin
          best := i;
          best_d := v
        end
      done;
      reg.rentries.(!best).cluster
  | Pruned p ->
      if p.pcount = 0 then invalid_arg "Calibration.assign_cluster_dists: empty calibration";
      if Array.length reg.rpk_clusters > 0 then reg.rpk_clusters.(p.ppos.(p.poff))
      else reg.rentries.(p.pidxs.(p.poff)).cluster

(* Weighted (1 - epsilon) quantile of the selected entries' absolute
   residuals — the split-conformal interval half-width. Runs in the
   [aux] workspace so the live selection's buffers survive; replaces
   the per-call (residual, weight) tuple array and sort of the former
   [Detector.Regression.interval] body. Residual ties may sort in a
   different order than the tuple sort used, but the quantile only
   reads the residual value at the crossing, which ties share. *)
let weighted_residual_quantile reg selection ~epsilon =
  let k = selection.sel_count in
  if k = 0 then 0.0
  else begin
    let qs = Domain.DLS.get query_scratch in
    let keys = Select.scratch_keys qs.aux k in
    if selection.sel_packed && Array.length reg.rpk_resid > 0 then
      (* Packed selections read the precomputed |rpred - target| table
         at the kept entries' packed positions — the same fold the
         entry-order branch performs per call, so keys are bit-equal. *)
      for r = 0 to k - 1 do
        keys.(r) <- reg.rpk_resid.(selection.sel_pos.(r))
      done
    else
      for r = 0 to k - 1 do
        let e = reg.rentries.(selection.sel_idxs.(r)) in
        keys.(r) <- abs_float (e.rpred -. e.target)
      done;
    Select.select_in_place qs.aux ~n:k ~k;
    let vals = Select.scratch_vals qs.aux and idxs = Select.scratch_idxs qs.aux in
    let total = ref 0.0 in
    for r = 0 to k - 1 do
      total := !total +. selection.sel_weights.(idxs.(r))
    done;
    let target_mass = (1.0 -. epsilon) *. (!total +. 1.0) in
    let acc = ref 0.0 and res = ref nan in
    for r = 0 to k - 1 do
      if Float.is_nan !res then begin
        acc := !acc +. selection.sel_weights.(idxs.(r));
        if !acc >= target_mass then res := vals.(r)
      end
    done;
    if Float.is_nan !res then vals.(k - 1) else !res
  end

(* --- Index telemetry and incremental growth. --- *)

let set_index_state_metrics st m =
  st.ix_metrics <- Some m;
  Prom_obs.Gauge.set m.ix_clusters (float_of_int (Knn_index.clusters st.knn))

let set_index_metrics_cls t m =
  match t.cls_index with None -> () | Some st -> set_index_state_metrics st m

let set_index_metrics_reg t m =
  match t.reg_index with None -> () | Some st -> set_index_state_metrics st m

let index_of_cls t = Option.map (fun st -> st.knn) t.cls_index
let index_of_reg t = Option.map (fun st -> st.knn) t.reg_index

(* Carry the index across an entry append: batched insert with the
   structure's own rebuild-on-imbalance policy, or a fresh build when
   the append crosses the indexing threshold. Telemetry survives the
   transition. *)
let grow_index ~config index fm ~from_row =
  match index with
  | Some st ->
      let knn, rebuilt = Knn_index.insert_batch st.knn fm ~from_row in
      (match st.ix_metrics with
      | Some m ->
          if rebuilt then Prom_obs.Counter.inc m.ix_rebuilds;
          Prom_obs.Gauge.set m.ix_clusters (float_of_int (Knn_index.clusters knn))
      | None -> ());
      Some
        {
          knn;
          ix_query_k = query_k ~config (Featmat.length fm);
          ix_metrics = st.ix_metrics;
        }
  | None -> maybe_index ~config fm

(* Append the new rows' leave-one-out scores to the sorted reference
   distribution. The existing entries' scores are kept as computed at
   preparation time — recomputing them would cost the full O(n²·d)
   pass the append exists to avoid — so the conformal reference lags
   the grown set slightly until the next full retrain. *)
let grow_loo fm (loo, order) ~from_row =
  let n = Featmat.length fm in
  let added =
    Array.init (n - from_row) (fun i ->
        Featmat.knn_mean_dist_rows fm ~row:(from_row + i) ~k:knn_distance_k)
  in
  if Array.length order = Array.length loo then begin
    (* Merge while tracking each sorted slot's entry: the appended rows'
       scores tag entries [from_row ..]. The sorted score values equal
       the bare [Array.sort Float.compare] merge (ties are bit-equal),
       so the conformal reference is unchanged by the bookkeeping. *)
    let merged = Array.make (Array.length loo + Array.length added) (0.0, 0) in
    Array.iteri (fun r s -> merged.(r) <- (s, order.(r))) loo;
    Array.iteri
      (fun i s -> merged.(Array.length loo + i) <- (s, from_row + i))
      added;
    Array.sort
      (fun (s1, i1) (s2, i2) ->
        let c = Float.compare s1 s2 in
        if c <> 0 then c else Stdlib.compare i1 i2)
      merged;
    (Array.map fst merged, Array.map snd merged)
  end
  else begin
    (* Unknown permutation (pre-v3 restore): keep the plain sorted merge;
       the distance test stays unweighted for this store's lifetime. *)
    let merged = Array.append loo added in
    Array.sort Float.compare merged;
    (merged, [||])
  end

let append_cls t new_entries =
  if Array.length new_entries = 0 then t
  else begin
    let from_row = Featmat.length t.feat_matrix in
    let feat_matrix =
      Featmat.append t.feat_matrix (Array.map (fun e -> e.features) new_entries)
    in
    let loo_distances, loo_order =
      grow_loo feat_matrix (t.loo_distances, t.loo_order) ~from_row
    in
    (* Appends reset to unit weights: the freshly admitted rows have no
       weight yet and a stale vector would mis-weight every rank sum.
       Streaming callers reweight immediately after ([reweight_cls]). *)
    {
      t with
      entries = Array.append t.entries new_entries;
      feat_matrix;
      loo_distances;
      loo_order;
      ent_weights = [||];
      loo_suffix = [||];
      pk_weights = [||];
      cls_index = grow_index ~config:t.config t.cls_index feat_matrix ~from_row;
    }
  end

(* Full rebuild from an explicit entry set with frozen preprocessing —
   the streaming store's compaction step. The scaler and tau are carried
   over from the store the survivors came out of (recomputing them would
   shift every distance and weight for all in-flight comparisons); the
   O(n²·d) leave-one-out reference and the indexing decision are
   recomputed from scratch, off the serving path — the rebuilt store is
   published by hot-swap when done. Weights reset to unit; the caller
   reweights against the new entry order. *)
let rebuild_cls ?pool ~config ~scaler ~tau entries =
  Config.validate config;
  if Array.length entries = 0 then invalid_arg "Calibration.rebuild_cls: no entries";
  if not (tau > 0.0) then invalid_arg "Calibration.rebuild_cls: tau must be positive";
  let feat_matrix = Featmat.of_rows (Array.map (fun e -> e.features) entries) in
  let loo_distances, loo_order = loo_distance_scores ?pool feat_matrix in
  {
    entries;
    config;
    scaler;
    tau;
    loo_distances;
    loo_order;
    ent_weights = [||];
    loo_suffix = [||];
    pk_weights = [||];
    feat_matrix;
    cls_index = maybe_index ~config feat_matrix;
  }

let append_reg t samples =
  if Array.length samples = 0 then t
  else begin
    let from_row = Featmat.length t.rfeat_matrix in
    (* Each admitted sample is labelled against the PRE-append store —
       nearest-neighbour cluster and LOO-kNN proxy exactly as a test
       query would have been scored — so the batch's entries do not
       depend on the order the samples arrive in. *)
    let new_entries =
      Array.map
        (fun (f, y, pred) ->
          let cluster = t.rentries.(Featmat.argmin_sq t.rfeat_matrix f).cluster in
          let rproxy, rspread = knn_truth t f ~k:t.rconfig.Config.knn_k in
          { rfeatures = f; target = y; rpred = pred; cluster; rproxy; rspread })
        samples
    in
    let rfeat_matrix =
      Featmat.append t.rfeat_matrix (Array.map (fun (f, _, _) -> f) samples)
    in
    let rentries = Array.append t.rentries new_entries in
    let reg_index = grow_index ~config:t.rconfig t.reg_index rfeat_matrix ~from_row in
    (* The member permutation changes on every insert (splice or
       rebuild), so the packed sidecars are rebuilt against the grown
       index — never carried over. *)
    let rpk_targets, rpk_clusters, rpk_resid = reg_packed_tables rentries reg_index in
    let rloo_distances, rloo_order =
      grow_loo rfeat_matrix (t.rloo_distances, t.rloo_order) ~from_row
    in
    (* See [append_cls]: appends reset to unit weights. *)
    {
      t with
      rentries;
      rfeat_matrix;
      rloo_distances;
      rloo_order;
      rent_weights = [||];
      rloo_suffix = [||];
      rpk_weights = [||];
      reg_index;
      rpk_targets;
      rpk_clusters;
      rpk_resid;
    }
  end
