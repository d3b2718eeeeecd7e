(* Cluster-pruned exact kNN over Featmat rows. Pruning uses the
   triangle inequality d(q,x) >= d(q,c) - r_c per cluster; surviving
   rows are reranked with the same sq_dist kernel the dense scan uses
   and selected in the same (value, index) order as the dense
   selection — so the returned top-k is bit-identical to a full scan;
   the cluster bound and the per-row filter against the k-th distance
   only drop rows that provably cannot enter it. *)

type t = {
  dim : int;
  n : int;
  built_n : int;  (* rows at the last (re)build; drives the rebuild policy *)
  cents : Featmat.t;  (* cluster centroids, one row each *)
  radii : float array;  (* Euclidean distance to the farthest member *)
  members : int array;  (* row ids grouped by cluster, ascending within *)
  offsets : int array;  (* cluster c owns members.(offsets.(c) .. offsets.(c+1) - 1) *)
  (* Cluster-contiguous copy of the rows (position m holds row
     members.(m)), built lazily from the query matrix: a cluster's
     members are scattered across the row matrix, and at calibration
     sizes the resulting gather is memory-latency-bound — ~3x the cost
     of streaming the same rows sequentially. The copy trades one extra
     n*dim float array for sequential rerank scans; distances are
     bit-identical (same floats, same kernel). The benign first-query
     race just builds the same immutable value twice. *)
  packed : Featmat.t option Atomic.t;
  (* cumulative query counters, sharded nowhere: queries are short, so
     plain atomics cost a few ns each and stay exact across domains *)
  q_queries : int Atomic.t;
  q_scanned : int Atomic.t;
  q_rows_pruned : int Atomic.t;
  q_clusters_pruned : int Atomic.t;
}

let length t = t.n
let dim t = t.dim
let clusters t = Array.length t.radii
let inserted_since_build t = t.n - t.built_n
let member_order t = Array.copy t.members

type acc = {
  mutable ac_scanned : int;
  mutable ac_rows_pruned : int;
  mutable ac_clusters_pruned : int;
}

let acc_create () = { ac_scanned = 0; ac_rows_pruned = 0; ac_clusters_pruned = 0 }

type stats = {
  st_queries : int;
  st_scanned : int;
  st_rows_pruned : int;
  st_clusters_pruned : int;
}

let stats t =
  {
    st_queries = Atomic.get t.q_queries;
    st_scanned = Atomic.get t.q_scanned;
    st_rows_pruned = Atomic.get t.q_rows_pruned;
    st_clusters_pruned = Atomic.get t.q_clusters_pruned;
  }

let fresh_counters () =
  (Atomic.make 0, Atomic.make 0, Atomic.make 0, Atomic.make 0)

(* --- Construction. --- *)

(* Lloyd iterations run on at most this many evenly spaced rows; the
   final assignment pass always covers every row. Centroid quality only
   affects pruning efficiency, never correctness, so a bounded sample
   keeps builds O(n) in the row count. *)
let lloyd_sample_cap = 16384
let lloyd_iters = 6
let max_clusters = 4096

let default_n_clusters n =
  Stdlib.max 1 (Stdlib.min (Stdlib.min n max_clusters)
                  (int_of_float (Float.round (sqrt (float_of_int n)))))

(* Rows per cross-distance block during assignment: bounds the block
   buffer at ~64 KB regardless of cluster count. *)
let assign_block nc = Stdlib.max 1 (8192 / Stdlib.max 1 nc)

(* Assign rows [0, n) of [fm] to their nearest centroid (strict <,
   first minimum wins), writing cluster ids into [assign] and, when
   [maxsq] is given, folding each row's squared distance into its
   cluster's running maximum. *)
let assign_all fm cents assign maxsq =
  let n = Featmat.length fm in
  let nc = Featmat.length cents in
  let block = assign_block nc in
  let buf = Array.make (block * nc) 0.0 in
  let r0 = ref 0 in
  while !r0 < n do
    let r1 = Stdlib.min n (!r0 + block) in
    Featmat.sq_dists_cross_block fm ~r0:!r0 ~r1 cents buf;
    for r = !r0 to r1 - 1 do
      let base = (r - !r0) * nc in
      let best = ref 0 and best_d = ref (Array.unsafe_get buf base) in
      for c = 1 to nc - 1 do
        let d = Array.unsafe_get buf (base + c) in
        if d < !best_d then begin
          best := c;
          best_d := d
        end
      done;
      assign.(r) <- !best;
      match maxsq with
      | None -> ()
      | Some m -> if !best_d > m.(!best) then m.(!best) <- !best_d
    done;
    r0 := r1
  done

(* Group rows by cluster id: counting sort, so members stay ascending
   within each cluster. Returns (members, offsets). *)
let group_members assign n nc =
  let counts = Array.make nc 0 in
  for i = 0 to n - 1 do
    counts.(assign.(i)) <- counts.(assign.(i)) + 1
  done;
  let offsets = Array.make (nc + 1) 0 in
  for c = 0 to nc - 1 do
    offsets.(c + 1) <- offsets.(c) + counts.(c)
  done;
  let members = Array.make n 0 in
  let cursor = Array.copy offsets in
  for i = 0 to n - 1 do
    let c = assign.(i) in
    members.(cursor.(c)) <- i;
    cursor.(c) <- cursor.(c) + 1
  done;
  (members, offsets)

let build ?n_clusters fm =
  let n = Featmat.length fm in
  if n = 0 then invalid_arg "Knn_index.build: empty matrix";
  let dim = Featmat.dim fm in
  let nc =
    match n_clusters with
    | None -> default_n_clusters n
    | Some k ->
        if k < 1 then invalid_arg "Knn_index.build: non-positive n_clusters";
        Stdlib.min k n
  in
  (* Evenly spaced seeding: deterministic, and with rows in storage
     order it spreads the seeds across the set. *)
  let centroids = Array.init nc (fun j -> Featmat.row fm (j * n / nc)) in
  (* Lloyd on an evenly spaced sample, packed once so each iteration
     streams contiguous memory. *)
  let stride = (n + lloyd_sample_cap - 1) / lloyd_sample_cap in
  let sample_n = (n + stride - 1) / stride in
  let sfm =
    if stride = 1 then fm
    else Featmat.of_rows (Array.init sample_n (fun i -> Featmat.row fm (i * stride)))
  in
  let sn = Featmat.length sfm in
  let sassign = Array.make sn (-1) in
  let iter = ref 0 and changed = ref true in
  while !iter < lloyd_iters && !changed do
    let cents = Featmat.of_rows centroids in
    let prev = Array.copy sassign in
    assign_all sfm cents sassign None;
    changed := sassign <> prev;
    if !changed then begin
      (* New centroid = mean of assigned sample rows, accumulated in
         ascending row order (deterministic); empty clusters keep their
         previous centroid. *)
      let sums = Array.make_matrix nc dim 0.0 in
      let counts = Array.make nc 0 in
      for i = 0 to sn - 1 do
        let c = sassign.(i) in
        counts.(c) <- counts.(c) + 1;
        let s = sums.(c) in
        let r = Featmat.row sfm i in
        for j = 0 to dim - 1 do
          s.(j) <- s.(j) +. r.(j)
        done
      done;
      for c = 0 to nc - 1 do
        if counts.(c) > 0 then begin
          let inv = 1.0 /. float_of_int counts.(c) in
          centroids.(c) <- Array.map (fun s -> s *. inv) sums.(c)
        end
      done
    end;
    incr iter
  done;
  (* Final exact pass over every row: assignment, radii, membership. *)
  let cents = Featmat.of_rows centroids in
  let assign = Array.make n 0 in
  let maxsq = Array.make nc 0.0 in
  assign_all fm cents assign (Some maxsq);
  (* Compact away empty clusters so the query loop never wastes a bound
     check on them. *)
  let occupied = Array.make nc false in
  Array.iter (fun c -> occupied.(c) <- true) assign;
  let remap = Array.make nc (-1) in
  let live = ref 0 in
  for c = 0 to nc - 1 do
    if occupied.(c) then begin
      remap.(c) <- !live;
      incr live
    end
  done;
  let nc' = !live in
  let centroids' = Array.make nc' [||] in
  let radii = Array.make nc' 0.0 in
  for c = 0 to nc - 1 do
    if occupied.(c) then begin
      centroids'.(remap.(c)) <- centroids.(c);
      radii.(remap.(c)) <- sqrt maxsq.(c)
    end
  done;
  for i = 0 to n - 1 do
    assign.(i) <- remap.(assign.(i))
  done;
  let members, offsets = group_members assign n nc' in
  let q_queries, q_scanned, q_rows_pruned, q_clusters_pruned = fresh_counters () in
  {
    dim;
    n;
    built_n = n;
    cents = Featmat.of_rows centroids';
    radii;
    members;
    offsets;
    packed = Atomic.make None;
    q_queries;
    q_scanned;
    q_rows_pruned;
    q_clusters_pruned;
  }

(* --- Queries. --- *)

(* Per-domain query workspace: centroid distances, the cluster ordering
   scratch and the gathered-candidate arrays are reused across
   queries. *)
type qscratch = {
  csel : Select.scratch;
  mutable cdists : float array;
  mutable cand_vals : float array;
  mutable cand_ids : int array;
  mutable cand_pos : int array;
}

let qscratch : qscratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        csel = Select.scratch_create ();
        cdists = [||];
        cand_vals = [||];
        cand_ids = [||];
        cand_pos = [||];
      })

let ensure_cand qs ~gathered need =
  if Array.length qs.cand_vals < need then begin
    let cap = Stdlib.max need (Stdlib.max 1024 (2 * Array.length qs.cand_vals)) in
    let nv = Array.make cap 0.0 and ni = Array.make cap 0 and np = Array.make cap 0 in
    Array.blit qs.cand_vals 0 nv 0 gathered;
    Array.blit qs.cand_ids 0 ni 0 gathered;
    Array.blit qs.cand_pos 0 np 0 gathered;
    qs.cand_vals <- nv;
    qs.cand_ids <- ni;
    qs.cand_pos <- np
  end

(* A cluster is skipped only when its squared lower bound clears the
   k-th smallest candidate distance seen so far by a relative margin far
   wider than the kernel's accumulated rounding (~dim * 2^-53 relative),
   so a row whose computed distance lands epsilon below its true value
   can still never displace a kept candidate. Equality is never pruned:
   a row tying the k-th distance could win the index tie-break. *)
let prune_slack = 1.0 -. 1e-9

let query_into ?stats ?pos t fm q ~k ~idxs ~vals ~off =
  if Featmat.length fm <> t.n || Featmat.dim fm <> t.dim then
    invalid_arg "Knn_index.query_into: matrix does not match the index";
  if k < 0 then invalid_arg "Knn_index.query_into: negative k";
  let k = Stdlib.min k t.n in
  if k = 0 then 0
  else begin
    if Array.length idxs < off + k || Array.length vals < off + k then
      invalid_arg "Knn_index.query_into: output too small";
    (match pos with
    | Some p when Array.length p < off + k ->
        invalid_arg "Knn_index.query_into: pos output too small"
    | _ -> ());
    let qs = Domain.DLS.get qscratch in
    let nc = Array.length t.radii in
    if Array.length qs.cdists < nc then qs.cdists <- Array.make nc 0.0;
    let cdists = qs.cdists in
    Featmat.sq_dists_into t.cents q cdists;
    (* Visit clusters by ascending centroid distance, so the first
       threshold comes from the nearest rows. *)
    Array.blit cdists 0 (Select.scratch_keys qs.csel nc) 0 nc;
    Select.select_in_place qs.csel ~n:nc ~k:nc;
    let cidx = Select.scratch_idxs qs.csel in
    let packed =
      match Atomic.get t.packed with
      | Some p -> p
      | None ->
          let p = Featmat.gather fm t.members in
          Atomic.set t.packed (Some p);
          p
    in
    (* Candidates are (distance, row, packed position) triples. Once k
       are held, [worst] is the largest kept distance: a row strictly
       farther cannot enter the top-k, so it is dropped as it is
       computed (ties and NaN stay, leaving the (value, index)
       tie-break to the final selection), and a cluster whose lower
       bound clears it is skipped whole. The list is cut back to its k
       smallest whenever it reaches 2k, so selection work stays linear
       in the rows scanned even when no cluster prunes. A threshold is
       only ever too large between cuts, so it keeps too much, never too
       little. *)
    let gathered = ref 0 and visited = ref 0 and scanned = ref 0 in
    let worst = ref infinity and cut_at = ref k in
    for ci = 0 to nc - 1 do
      let c = Array.unsafe_get cidx ci in
      let lb = sqrt (Array.unsafe_get cdists c) -. Array.unsafe_get t.radii c in
      let lb2 = if lb > 0.0 then lb *. lb else 0.0 in
      if not (lb2 *. prune_slack > !worst) then begin
        let m0 = Array.unsafe_get t.offsets c
        and m1 = Array.unsafe_get t.offsets (c + 1) in
        ensure_cand qs ~gathered:!gathered (!gathered + (m1 - m0));
        let cv = qs.cand_vals and cids = qs.cand_ids and cpos = qs.cand_pos in
        (* One range-kernel call reranks the whole cluster (its packed
           rows are contiguous); a branch-free pass then compacts the
           kept rows in place with their ids and packed positions. *)
        let base = !gathered in
        Featmat.sq_dists_range packed ~r0:m0 ~r1:m1 q cv ~off:base;
        let w = !worst and g = ref base in
        for m = m0 to m1 - 1 do
          let d = Array.unsafe_get cv (base + m - m0) in
          Array.unsafe_set cv !g d;
          Array.unsafe_set cids !g (Array.unsafe_get t.members m);
          Array.unsafe_set cpos !g m;
          g := !g + Bool.to_int (not (d > w))
        done;
        gathered := !g;
        scanned := !scanned + (m1 - m0);
        incr visited;
        if !gathered >= !cut_at then begin
          Select.partition_trips ~vals:cv ~ids:cids ~aux:cpos ~n:!gathered ~k;
          let w = ref (Array.unsafe_get cv 0) in
          for j = 1 to k - 1 do
            let v = Array.unsafe_get cv j in
            if v > !w then w := v
          done;
          worst := !w;
          gathered := k;
          cut_at := 2 * k
        end
      end
    done;
    let clusters_pruned = nc - !visited in
    let rows_pruned = t.n - !scanned in
    Atomic.incr t.q_queries;
    ignore (Atomic.fetch_and_add t.q_scanned !scanned : int);
    ignore (Atomic.fetch_and_add t.q_rows_pruned rows_pruned : int);
    ignore (Atomic.fetch_and_add t.q_clusters_pruned clusters_pruned : int);
    (match stats with
    | None -> ()
    | Some a ->
        a.ac_scanned <- a.ac_scanned + !scanned;
        a.ac_rows_pruned <- a.ac_rows_pruned + rows_pruned;
        a.ac_clusters_pruned <- a.ac_clusters_pruned + clusters_pruned);
    (* Every row left out was either skipped by a bound or filtered
       against k held candidates, and all n >= k rows were considered,
       so at least k remain and their ascending k-prefix is the exact
       top-k. The packed positions ride along as selection payload —
       they never enter a comparison, so the kept prefix is identical to
       the pairs-only selection. *)
    Select.partition_trips ~vals:qs.cand_vals ~ids:qs.cand_ids ~aux:qs.cand_pos
      ~n:!gathered ~k;
    Select.sort_trips_prefix ~vals:qs.cand_vals ~ids:qs.cand_ids ~aux:qs.cand_pos ~k;
    Array.blit qs.cand_ids 0 idxs off k;
    Array.blit qs.cand_vals 0 vals off k;
    (match pos with Some p -> Array.blit qs.cand_pos 0 p off k | None -> ());
    k
  end

(* --- Incremental maintenance. --- *)

(* Rebuild once appends reach half the build-time size or a cluster
   grows past 8x the mean: inserts only ever widen radii (weakening
   bounds), so unbounded drift would erode pruning without ever
   breaking exactness. *)
let rebuild_due t =
  let inserted = t.n - t.built_n in
  if 2 * inserted >= t.built_n then true
  else begin
    let nc = Array.length t.radii in
    let mean = t.n / Stdlib.max 1 nc in
    let worst = ref 0 in
    for c = 0 to nc - 1 do
      let size = t.offsets.(c + 1) - t.offsets.(c) in
      if size > !worst then worst := size
    done;
    !worst > 8 * Stdlib.max 1 mean
  end

let insert_batch t fm ~from_row =
  if from_row <> t.n then invalid_arg "Knn_index.insert_batch: from_row mismatch";
  if Featmat.dim fm <> t.dim then invalid_arg "Knn_index.insert_batch: dimension mismatch";
  let n' = Featmat.length fm in
  if n' < t.n then invalid_arg "Knn_index.insert_batch: matrix shrank";
  if n' = t.n then (t, false)
  else begin
    let nc = Array.length t.radii in
    let added = n' - t.n in
    let assign = Array.make added 0 in
    let radii = Array.copy t.radii in
    let cd = Array.make nc 0.0 in
    for a = 0 to added - 1 do
      let v = Featmat.row fm (t.n + a) in
      Featmat.sq_dists_into t.cents v cd;
      let best = ref 0 and best_d = ref cd.(0) in
      for c = 1 to nc - 1 do
        if cd.(c) < !best_d then begin
          best := c;
          best_d := cd.(c)
        end
      done;
      assign.(a) <- !best;
      let r = sqrt !best_d in
      if r > radii.(!best) then radii.(!best) <- r
    done;
    (* Splice the new rows into their clusters; fresh ids are the
       largest, so appending at each group's end keeps members
       ascending within every cluster. *)
    let extra = Array.make nc 0 in
    Array.iter (fun c -> extra.(c) <- extra.(c) + 1) assign;
    let offsets = Array.make (nc + 1) 0 in
    for c = 0 to nc - 1 do
      offsets.(c + 1) <- offsets.(c) + (t.offsets.(c + 1) - t.offsets.(c)) + extra.(c)
    done;
    let members = Array.make n' 0 in
    let cursor = Array.make nc 0 in
    for c = 0 to nc - 1 do
      let old_size = t.offsets.(c + 1) - t.offsets.(c) in
      Array.blit t.members t.offsets.(c) members offsets.(c) old_size;
      cursor.(c) <- offsets.(c) + old_size
    done;
    for a = 0 to added - 1 do
      let c = assign.(a) in
      members.(cursor.(c)) <- t.n + a;
      cursor.(c) <- cursor.(c) + 1
    done;
    let t' =
      { t with n = n'; radii; members; offsets; packed = Atomic.make None }
    in
    if rebuild_due t' then (build ~n_clusters:(default_n_clusters n') fm, true)
    else (t', false)
  end

(* --- Persistence. --- *)

type export = {
  ex_dim : int;
  ex_n : int;
  ex_built_n : int;
  ex_centroids : float array;
  ex_radii : float array;
  ex_members : int array;
  ex_offsets : int array;
}

let export t =
  let nc = Array.length t.radii in
  let flat = Array.make (nc * t.dim) 0.0 in
  for c = 0 to nc - 1 do
    Array.blit (Featmat.row t.cents c) 0 flat (c * t.dim) t.dim
  done;
  {
    ex_dim = t.dim;
    ex_n = t.n;
    ex_built_n = t.built_n;
    ex_centroids = flat;
    ex_radii = Array.copy t.radii;
    ex_members = Array.copy t.members;
    ex_offsets = Array.copy t.offsets;
  }

let import e =
  let fail msg = invalid_arg ("Knn_index.import: " ^ msg) in
  let nc = Array.length e.ex_radii in
  if e.ex_dim < 0 then fail "negative dimension";
  if e.ex_n < 1 then fail "no rows";
  if e.ex_built_n < 1 || e.ex_built_n > e.ex_n then fail "bad build size";
  if nc < 1 then fail "no clusters";
  if Array.length e.ex_centroids <> nc * e.ex_dim then fail "centroid shape";
  if Array.length e.ex_offsets <> nc + 1 then fail "offsets shape";
  if Array.length e.ex_members <> e.ex_n then fail "members shape";
  if e.ex_offsets.(0) <> 0 || e.ex_offsets.(nc) <> e.ex_n then fail "offsets range";
  for c = 0 to nc - 1 do
    if e.ex_offsets.(c + 1) < e.ex_offsets.(c) then fail "offsets not monotone";
    let r = e.ex_radii.(c) in
    if not (r >= 0.0) || not (Float.is_finite r) then fail "invalid radius"
  done;
  let seen = Array.make e.ex_n false in
  Array.iter
    (fun m ->
      if m < 0 || m >= e.ex_n || seen.(m) then fail "members not a permutation";
      seen.(m) <- true)
    e.ex_members;
  let centroids =
    Array.init nc (fun c -> Array.sub e.ex_centroids (c * e.ex_dim) e.ex_dim)
  in
  let q_queries, q_scanned, q_rows_pruned, q_clusters_pruned = fresh_counters () in
  {
    dim = e.ex_dim;
    n = e.ex_n;
    built_n = e.ex_built_n;
    cents = Featmat.of_rows centroids;
    radii = Array.copy e.ex_radii;
    members = Array.copy e.ex_members;
    offsets = Array.copy e.ex_offsets;
    packed = Atomic.make None;
    q_queries;
    q_scanned;
    q_rows_pruned;
    q_clusters_pruned;
  }
