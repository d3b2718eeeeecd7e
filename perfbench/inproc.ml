(* In-process phases: a host that links PROM and calls it directly.
   Each phase drives one public entry point — [Service.evaluate_batch],
   [Service.should_accept], [Detector.Regression.evaluate_batch],
   [Stream.admit] — and returns raw samples; [Main] turns them into
   metrics. *)

open Prom
module Pool = Prom_parallel.Pool

let pairs (qs : World.query array) = Array.map (fun (q : World.query) -> (q.x, q.p)) qs

(* Cut [qs] into consecutive [size]-query batches. *)
let batches qs size =
  Array.init (Array.length qs / size) (fun b -> Array.sub qs (b * size) size)

(* {2 Bit-identity of verdicts} *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_expert (a : Scores.expert_verdict) (b : Scores.expert_verdict) =
  a.expert = b.expert && same_float a.credibility b.credibility
  && same_float a.confidence b.confidence && a.set_size = b.set_size
  && same_float a.distance_pvalue b.distance_pvalue && a.flags_drift = b.flags_drift

let same_experts a b = List.length a = List.length b && List.for_all2 same_expert a b

let same_cls (a : Detector.cls_verdict) (b : Detector.cls_verdict) =
  a.predicted = b.predicted && a.drifted = b.drifted
  && same_float a.mean_credibility b.mean_credibility
  && same_float a.mean_confidence b.mean_confidence && same_experts a.experts b.experts

let same_reg (a : Detector.reg_verdict) (b : Detector.reg_verdict) =
  same_float a.predicted_value b.predicted_value && a.cluster = b.cluster
  && same_float a.knn_estimate b.knn_estimate && a.reg_drifted = b.reg_drifted
  && same_float a.reg_mean_credibility b.reg_mean_credibility
  && same_float a.reg_mean_confidence b.reg_mean_confidence
  && same_experts a.reg_experts b.reg_experts

let all2 f a b = Array.length a = Array.length b && Array.for_all2 f a b

(* Gate: the pooled batch path gives the verdicts each query gets when
   evaluated alone, and [should_accept] agrees with them. *)
let cls_gate ~pool ~pool1 svc qs =
  let q = pairs qs in
  let batch = Service.evaluate_batch ~pool svc q in
  let seq = Array.map (fun x -> (Service.evaluate_batch ~pool:pool1 svc [| x |]).(0)) q in
  let single =
    Array.map (fun (features, proba) -> Service.should_accept svc ~features ~proba) q
  in
  all2 same_cls batch seq
  && all2 (fun (v : Detector.cls_verdict) ok -> ok = not v.drifted) batch single

let reg_gate ~pool det xs =
  all2 same_reg
    (Detector.Regression.evaluate_batch ~pool det xs)
    (Array.map (Detector.Regression.evaluate det) xs)

(* {2 Closed loops} *)

let cls_batches ~pool svc bs ~seconds =
  let nb = Array.length bs in
  Tr.closed_loop ~seconds (fun i -> ignore (Service.evaluate_batch ~pool svc bs.(i mod nb)))

let reg_batches ~pool det bs ~seconds =
  let nb = Array.length bs in
  Tr.closed_loop ~seconds (fun i ->
      ignore (Detector.Regression.evaluate_batch ~pool det bs.(i mod nb)))

let singles svc (qs : World.query array) ~seconds =
  let n = Array.length qs in
  Tr.closed_loop ~seconds (fun i ->
      let q = qs.(i mod n) in
      ignore (Service.should_accept svc ~features:q.x ~proba:q.p))

(* {2 Open loop}

   Requests arrive on a seeded Poisson schedule and one caller thread
   serves them in order, so a request that arrives while an earlier one
   is still running waits. Latency runs from the due time; generator
   lateness is how long after [max due (previous completion)] a request
   started. *)

type open_result = {
  lat : float array;  (** completion minus due time, seconds *)
  late : float array;  (** generator lateness, seconds *)
}

let latency_limit = 0.010

(* Share of requests answered within the 10 ms budget. *)
let within_budget lat =
  let n = Array.length lat in
  if n = 0 then 0.0
  else
    float_of_int (Array.fold_left (fun c v -> if v <= latency_limit then c + 1 else c) 0 lat)
    /. float_of_int n

(* The backlog grows when the typical request of the phase's last
   quarter waits longer than that of its first quarter by more than the
   budget. *)
let backlog_steady lat =
  let n = Array.length lat in
  let q = max 1 (n / 4) in
  n > 0 && Tr.median (Array.sub lat (n - q) q) <= Tr.median (Array.sub lat 0 q) +. latency_limit

let open_loop ~rng ~rate ~seconds serve =
  let lat = Tr.Samples.create () and late = Tr.Samples.create () in
  let t_start = Tr.now () +. 0.002 in
  let t_end = t_start +. seconds in
  let due = ref (t_start +. Tr.poisson_gap rng rate) in
  let prev_done = ref t_start in
  let i = ref 0 in
  while !due < t_end do
    Tr.sleep_until !due;
    let start = Tr.now () in
    serve !i;
    let fin = Tr.now () in
    Tr.Samples.add lat (fin -. !due);
    Tr.Samples.add late (start -. Float.max !due !prev_done);
    prev_done := fin;
    incr i;
    due := !due +. Tr.poisson_gap rng rate
  done;
  { lat = Tr.Samples.to_array lat; late = Tr.Samples.to_array late }

(* The max-rate search: an up-down staircase on the backlog edge, one
   probe at a time so its probes can be interleaved with other phases.
   From [lo] the rate moves up after a probe whose backlog stayed
   steady and down after one whose backlog grew. The step starts at
   x1.25, halves at every reversal (down to 2%) and doubles again after
   two moves in the same direction, so one noisy probe cannot strand
   the search far from the edge. The estimate is the median rate of the
   second half of the probes: the highest offered rate the deployment
   sustains without a growing backlog. *)
type search = {
  mutable rate : float;
  mutable step : float;  (** log of the rate factor *)
  mutable last : bool option;
  mutable same : int;  (** moves in the current direction *)
  mutable history : float list;  (** probed rates, newest first *)
}

let max_step = log 1.25
let min_step = log 1.02
let search ~lo = { rate = lo; step = max_step; last = None; same = 0; history = [] }
let next_rate s = s.rate

let record s rate res =
  let steady = backlog_steady res.lat in
  s.history <- rate :: s.history;
  Printf.eprintf "search probe %8.1f req/s  backlog %s  within budget %.3f\n" rate
    (if steady then "steady " else "growing") (within_budget res.lat);
  (match s.last with
  | Some l when l <> steady ->
      s.step <- Float.max min_step (s.step /. 2.0);
      s.same <- 1
  | _ ->
      s.same <- s.same + 1;
      if s.same > 2 then s.step <- Float.min max_step (s.step *. 2.0));
  s.last <- Some steady;
  s.rate <- rate *. exp (if steady then s.step else -.s.step)

let best s =
  let n = List.length s.history in
  Tr.median (Array.of_list (List.filteri (fun i _ -> i < max 1 (n / 2)) s.history))

(* {2 Admits} *)

type admit_result = {
  admit_lat : float array;  (** published minus due time, seconds *)
  swap_s : float array;  (** [Stream.stats.last_swap_s] after each admit *)
  rebuild_s : float array;  (** rebuild time of each compaction *)
}

(* Relabeled samples admitted on a fixed schedule of [rate]/s. An admit
   that falls due during a compaction waits for it, and its latency
   counts the wait. *)
let admits stream (samples : World.query array) ~rate ~seconds =
  let lat = Tr.Samples.create () and swap = Tr.Samples.create () in
  let rebuild = Tr.Samples.create () in
  let t_start = Tr.now () +. 0.002 in
  let n = int_of_float (seconds *. rate) in
  for i = 0 to n - 1 do
    let due = t_start +. (float_of_int i /. rate) in
    Tr.sleep_until due;
    let q = samples.(i mod Array.length samples) in
    let before = (Stream.stats stream).Stream.compactions in
    Stream.admit stream ~features:q.x ~label:q.label ~proba:q.p;
    Tr.Samples.add lat (Tr.now () -. due);
    let st = Stream.stats stream in
    Tr.Samples.add swap st.Stream.last_swap_s;
    if st.Stream.compactions > before then Tr.Samples.add rebuild st.Stream.last_rebuild_s
  done;
  {
    admit_lat = Tr.Samples.to_array lat;
    swap_s = Tr.Samples.to_array swap;
    rebuild_s = Tr.Samples.to_array rebuild;
  }

(* {2 Quality}

   On a labelled query set with the seeded drifted share: the share of
   the model's mispredictions the committee flags, and the share of its
   correct predictions it flags. Deterministic for a seed. *)
let quality ~pool svc (qs : World.query array) =
  let v = Service.evaluate_batch ~pool svc (pairs qs) in
  let mis = ref 0 and mis_flag = ref 0 and ok = ref 0 and ok_flag = ref 0 in
  Array.iteri
    (fun i (q : World.query) ->
      let flagged = v.(i).Detector.drifted in
      if Prom_linalg.Vec.argmax q.p <> q.label then begin
        incr mis;
        if flagged then incr mis_flag
      end
      else begin
        incr ok;
        if flagged then incr ok_flag
      end)
    qs;
  ( float_of_int !mis_flag /. float_of_int (max 1 !mis),
    float_of_int !ok_flag /. float_of_int (max 1 !ok) )
