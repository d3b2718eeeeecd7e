(* The repository benchmark.

     main.exe --workload embed|feedback|http --seed N --seconds S --trace 0|1

   Every workload measures the same user-facing quantities on its own
   deployment: set-up time, peak memory, batch throughput and latency,
   single-call latency, regression throughput, admit latency, request
   latency at two fixed offered rates, the highest offered rate served
   without a growing backlog, and detection quality. The
   workloads differ in what the deployment stresses (see README.md).
   With [--trace 1] the same phases run and the per-layer ledger is
   printed instead. Which metrics each mode prints, and their units,
   come from BENCHMARK.json in the working directory.

   The last line of standard output is the result:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. The line
   before it is the host block. The exit code is 0 only when every
   correctness gate passed and no operation failed. *)

open Prom
module Pool = Prom_parallel.Pool
module J = Prom_jsonx

(* {2 Deployments}

   The frozen offered rates ([light], [busy]; the max-rate search starts
   at [busy]) are per workload; for [http] they are HTTP request rates,
   for the in-process workloads single [should_accept] requests. *)

type deployment = {
  n : int;  (** calibration triples *)
  select_ratio : float;
  setup_reps : int;
  light : float;  (** req/s *)
  busy : float;  (** req/s *)
  admit_rate : float;  (** relabeled samples/s *)
  compact_fraction : float;
}

let deployment = function
  | "embed" ->
      {
        n = 1200;
        select_ratio = Config.default.Config.select_ratio;
        setup_reps = 11;
        light = 500.0;
        busy = 3000.0;
        admit_rate = 200.0;
        compact_fraction = 0.05;
      }
  | "feedback" ->
      {
        n = 4096;
        select_ratio = 0.01;
        setup_reps = 7;
        light = 300.0;
        busy = 1500.0;
        admit_rate = 10.0;
        compact_fraction = 0.006;
      }
  | "http" ->
      {
        n = Httpload.tenant_n;
        select_ratio = Config.default.Config.select_ratio;
        setup_reps = 7;
        light = 100.0;
        busy = 200.0;
        admit_rate = 200.0;
        compact_fraction = 0.05;
      }
  | w -> invalid_arg ("unknown workload " ^ w)

(* {2 Results} *)

let metrics : (string * float * string) list ref = ref []
let add name unit v = metrics := (name, v, unit) :: !metrics
let attempted = ref 0
let failed = ref 0
let gates : (string * bool) list ref = ref []
let gate name ok = gates := (name, ok) :: !gates

(* Attempted and failed operations per phase, printed to standard
   error in first-seen order. *)
let phases : (string * (int * int)) list ref = ref []

let phase name ~ops ~fails =
  phases :=
    if List.mem_assoc name !phases then
      List.map (fun (n, (o, f)) -> if n = name then (n, (o + ops, f + fails)) else (n, (o, f))) !phases
    else !phases @ [ (name, (ops, fails)) ];
  attempted := !attempted + ops;
  failed := !failed + fails

let ms = 1000.0
let us = 1e6

(* The share of the run's CPU time the hypervisor gave to other guests:
   high values mark a run measured on a contended host. *)
let run_start = (Tr.now (), Tr.steal_s ())

let steal_pct () =
  let t0, s0 = run_start in
  (Tr.steal_s () -. s0)
  /. ((Tr.now () -. t0) *. float_of_int (Domain.recommended_domain_count ()))
  *. 100.0

let host_block ~pool_domains =
  let env =
    List.filter
      (fun kv -> String.length kv > 5 && String.sub kv 0 5 = "PROM_")
      (Array.to_list (Unix.environment ()))
  in
  let index_min_n =
    Option.value (Sys.getenv_opt Calibration.index_threshold_env) ~default:"4096 (default)"
  in
  let isa =
    try
      let ic = Unix.open_process_in "uname -m" in
      let s = input_line ic in
      ignore (Unix.close_process_in ic);
      s
    with _ -> "unknown"
  in
  J.Obj
    [
      ( "host",
        J.Obj
          [
            ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
            ("isa", J.Str isa);
            ("kernels_backend", J.Str (Prom_linalg.Kernels.active_name ()));
            ("kernels_isa", J.Str (Prom_linalg.Kernels.active_isa ()));
            ("ocaml", J.Str Sys.ocaml_version);
            ("pool_domains", J.Num (float_of_int pool_domains));
            ("prom_env", J.Arr (List.map (fun s -> J.Str s) env));
            ("prom_index_min_n", J.Str index_min_n);
            ("steal_pct", J.Num (steal_pct ()));
          ] );
    ]

(* {2 Shared phases} *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  d : deployment;
  pool : Pool.t;
  pool1 : Pool.t;
  tr : Tr.tracer;
}

let config d = { Config.default with Config.select_ratio = d.select_ratio }

(* {2 Interleaved phases}

   A workload's timed phases run in [rounds] rounds; each round runs one
   window of every phase, so a slow stretch of the machine lands on all
   phases alike instead of on whichever phase ran then. A metric is the
   median of its per-window values, so one stall in one window does not
   move it. *)

let rounds = 10

type job = { window : unit -> unit; report : unit -> unit }

let job run report =
  let acc = ref [] in
  {
    window = (fun () -> acc := run () :: !acc);
    report = (fun () -> report (Array.of_list (List.rev !acc)));
  }

let interleave jobs =
  for _ = 1 to rounds do
    List.iter (fun j -> j.window ()) jobs
  done;
  List.iter (fun j -> j.report ()) jobs

let per_window seconds = seconds /. float_of_int rounds
let median_of f a = Tr.median (Array.map f a)
let p99 l = Tr.quantile l 0.99

let report_latency name ~scale ~unit wins =
  add (name ^ "_p50") unit (median_of Tr.median wins *. scale);
  add (name ^ "_p99") unit (median_of p99 wins *. scale)

let ops wins = Array.fold_left (fun a l -> a + Array.length l) 0 wins

(* Closed-loop throughput of windows [(latencies, elapsed)], [per_call]
   items per call. *)
let per_s ~per_call wins =
  median_of (fun (l, dt) -> float_of_int (per_call * Array.length l) /. dt) wins

(* Closed-loop 64-query classification batches. In the traced run the
   pool's busy time is read around each window. *)
let cls_job c ~pool svc qs ~seconds =
  let bs = Array.map Inproc.pairs (Inproc.batches qs 64) in
  let reg = Prom_obs.create_registry () in
  if c.trace then Pool.attach_metrics pool reg;
  let busy () =
    Httpload.scrape
      (Prom_obs.Snapshot.to_prometheus (Prom_obs.Snapshot.take reg))
      "prom_pool_busy_seconds_total"
  in
  job
    (fun () ->
      let b0 = busy () in
      let lat, dt = Inproc.cls_batches ~pool svc bs ~seconds:(per_window seconds) in
      (lat, dt, busy () -. b0))
    (fun wins ->
      let lats = Array.map (fun (l, _, _) -> l) wins in
      phase "cls_batches" ~ops:(ops lats) ~fails:0;
      add "verdicts_per_s" "verdicts/s"
        (per_s ~per_call:64 (Array.map (fun (l, dt, _) -> (l, dt)) wins));
      report_latency "call_ms" ~scale:ms ~unit:"ms" lats;
      if c.trace then
        add "pool.busy_frac" "ratio"
          (median_of (fun (_, dt, b) -> b /. (dt *. float_of_int (Pool.size pool))) wins))

let reg_detector c w =
  Detector.Regression.create ~config:(config c.d) ~n_clusters:World.n_classes
    ~model:w.World.model_reg ~feature_of:Fun.id ~seed:c.seed
    (World.reg_calibration w c.d.n)

let reg_xs (qs : World.query array) = Array.map (fun (q : World.query) -> q.x) qs

let reg_job c det qs ~seconds =
  let xs = reg_xs qs in
  gate "reg batch = sequential" (Inproc.reg_gate ~pool:c.pool det (Array.sub xs 0 256));
  let bs = Inproc.batches xs 64 in
  job
    (fun () -> Inproc.reg_batches ~pool:c.pool det bs ~seconds:(per_window seconds))
    (fun wins ->
      phase "reg_batches" ~ops:(ops (Array.map fst wins)) ~fails:0;
      add "reg_verdicts_per_s" "verdicts/s" (per_s ~per_call:64 wins))

let single_job svc qs ~seconds =
  job
    (fun () -> fst (Inproc.singles svc qs ~seconds:(per_window seconds)))
    (fun lats ->
      phase "single_calls" ~ops:(ops lats) ~fails:0;
      report_latency "single_us" ~scale:us ~unit:"us" lats)

let late_all = Tr.Samples.create ()
let add_late late = Array.iter (Tr.Samples.add late_all) late

(* Each round: one window at each frozen rate, then two probes of the
   max-rate search. [run ~phase ~rate ~seconds] is one open-loop
   stretch. A light window holds few requests, so the light-rate median
   is taken over the samples of all its windows. *)
let open_job c ~seconds run =
  let search = Inproc.search ~lo:c.d.busy in
  let probe_s = 0.4 *. seconds /. float_of_int (2 * rounds) in
  job
    (fun () ->
      let light = run ~phase:"light" ~rate:c.d.light ~seconds:(per_window (0.3 *. seconds)) in
      let busy = run ~phase:"busy" ~rate:c.d.busy ~seconds:(per_window (0.3 *. seconds)) in
      for _ = 1 to 2 do
        let rate = Inproc.next_rate search in
        Inproc.record search rate (run ~phase:"probe" ~rate ~seconds:probe_s)
      done;
      (light, busy))
    (fun wins ->
      let light = Array.map (fun ((l : Inproc.open_result), _) -> l.lat) wins in
      let busy = Array.map (fun (_, (b : Inproc.open_result)) -> b.lat) wins in
      add "req_ms_p50.light" "ms" (Tr.median (Array.concat (Array.to_list light)) *. ms);
      add "req_ms_p99.light" "ms" (median_of p99 light *. ms);
      add "req_ms_p99.busy" "ms" (median_of p99 busy *. ms);
      add "max_rate_rps" "req/s" (Inproc.best search))

(* In-process open loop: single [should_accept] requests served in
   arrival order by one caller. *)
let inproc_open_job c svc (qs : World.query array) ~seconds =
  let rng = Prom_linalg.Rng.create (c.seed + 17) in
  let nq = Array.length qs in
  let serve i =
    let q = qs.(i mod nq) in
    ignore (Service.should_accept svc ~features:q.x ~proba:q.p)
  in
  open_job c ~seconds (fun ~phase:_ ~rate ~seconds ->
      let r = Inproc.open_loop ~rng ~rate ~seconds serve in
      phase "open_loop" ~ops:(Array.length r.lat) ~fails:0;
      add_late r.late;
      r)

let stream_of ?telemetry c svc =
  Stream.create
    ~policy:(Decay.Sliding { window = c.d.n })
    ~capacity:(2 * c.d.n) ~compact_fraction:c.d.compact_fraction ?telemetry ~pool:c.pool1 svc

let report_admits c stream (a : Inproc.admit_result array) =
  let all f = Array.concat (Array.to_list (Array.map f a)) in
  let lat = all (fun a -> a.Inproc.admit_lat) in
  phase "admits" ~ops:(Array.length lat) ~fails:0;
  add "admit_ms_p50" "ms" (Tr.median lat *. ms);
  add "admit_ms_p99" "ms" (p99 lat *. ms);
  if c.trace then begin
    let st = Stream.stats stream in
    let swap = all (fun a -> a.Inproc.swap_s) and rebuild = all (fun a -> a.Inproc.rebuild_s) in
    add "stream.swap_ms_p50" "ms" (Tr.median swap *. ms);
    add "stream.swap_ms_max" "ms" (Array.fold_left Float.max 0.0 swap *. ms);
    add "stream.rebuild_ms_max" "ms" (Array.fold_left Float.max 0.0 rebuild *. ms);
    add "stream.compactions" "count" (float_of_int st.Stream.compactions);
    add "stream.publishes" "count" (float_of_int st.Stream.publishes);
    add "stream.evicted" "count" (float_of_int st.Stream.evicted)
  end

(* Admits without concurrent reads, into a copy of the service so the
   other phases keep their store. *)
let admit_job c w svc ~seconds =
  let stream = stream_of c (Service.of_snapshot (Service.snapshot svc)) in
  let samples = World.relabeled w 4096 in
  job
    (fun () -> Inproc.admits stream samples ~rate:c.d.admit_rate ~seconds:(per_window seconds))
    (report_admits c stream)

(* Quality is measured on the task's reference deployment — calibration
   drawn from a fixed seed — so it moves only when verdicts change, not
   with the luck of one calibration draw; the run seed draws the
   labelled queries. *)
let quality_phase c w =
  let reference = World.make ~seed:(-1) () in
  let svc = Service.create ~config:(config c.d) (World.calibration reference c.d.n) in
  let qs = World.queries w 4000 in
  let recall, false_flags = Inproc.quality ~pool:c.pool svc qs in
  phase "quality" ~ops:(Array.length qs) ~fails:0;
  add "mispred_recall" "ratio" recall;
  add "false_flag_rate" "ratio" false_flags

(* The traced replay of the regression pipeline, checked against the
   detector. *)
let traced_reg c det qs =
  let xs = reg_xs qs in
  let e = Replay.reg_of_detector det in
  let sp = Replay.traced c.tr in
  let ok = ref true in
  for i = 0 to min 1024 (Array.length xs) - 1 do
    let v = Replay.eval_reg sp ~req:(100_000 + i) e xs.(i) in
    if not (Inproc.same_reg v (Detector.Regression.evaluate det xs.(i))) then ok := false
  done;
  gate "traced regression replay = detector" !ok

(* {2 Traced-run probes} *)

let traced_cls c svc (qs : World.query array) =
  let e = Replay.cls_of_service svc in
  let q = Inproc.pairs (Array.sub qs 0 (min 1024 (Array.length qs))) in
  let expect = Service.evaluate_batch ~pool:c.pool1 svc q in
  let index = Calibration.index_of_cls e.Replay.cal in
  let stats0 = Option.map Prom_linalg.Knn_index.stats index in
  let sp = Replay.traced c.tr in
  let ok = ref true in
  Array.iteri
    (fun i x -> if not (Inproc.same_cls (Replay.eval_cls sp ~req:i e x) expect.(i)) then ok := false)
    q;
  gate "traced replay = service" !ok;
  (match (index, stats0) with
  | Some ix, Some s0 ->
      let s1 = Prom_linalg.Knn_index.stats ix in
      let dq = s1.st_queries - s0.st_queries in
      let scanned = s1.st_scanned - s0.st_scanned in
      let pruned = s1.st_rows_pruned - s0.st_rows_pruned in
      add "knn_index.candidates_per_query" "rows" (float_of_int scanned /. float_of_int (max 1 dq));
      add "knn_index.pruned_frac" "ratio"
        (float_of_int pruned /. float_of_int (max 1 (scanned + pruned)));
      add "knn_index.clusters" "count" (float_of_int (Prom_linalg.Knn_index.clusters ix))
  | _ ->
      add "knn_index.candidates_per_query" "rows" 0.0;
      add "knn_index.pruned_frac" "ratio" 0.0;
      add "knn_index.clusters" "count" 0.0);
  (* Tracing overhead: the traced replay against the same replay with
     the stamps left out, interleaved. *)
  let time sp =
    let t0 = Tr.now () in
    Array.iteri (fun i x -> ignore (Replay.eval_cls sp ~req:i e x)) q;
    Tr.now () -. t0
  in
  let scratch = Tr.tracer () in
  let traced = Array.make 5 0.0 and plain = Array.make 5 0.0 in
  for r = 0 to 4 do
    plain.(r) <- time Replay.untimed;
    traced.(r) <- time (Replay.traced scratch);
    scratch.n <- 0
  done;
  add "trace.overhead_pct" "%" ((Tr.median traced /. Tr.median plain -. 1.0) *. 100.0);
  (* Pool: the same 64-query batches on the pool and sequentially. *)
  let bs = Array.map Inproc.pairs (Inproc.batches qs 64) in
  let nb = min 8 (Array.length bs) in
  for r = 0 to 3 do
    for b = 0 to nb - 1 do
      let req = 200_000 + (r * nb) + b in
      ignore
        (Tr.span c.tr ~name:"service.batch" ~parent:(-1) ~req (fun _ ->
             Service.evaluate_batch ~pool:c.pool svc bs.(b)));
      ignore
        (Tr.span c.tr ~name:"service.batch_seq" ~parent:(-1) ~req (fun _ ->
             Service.evaluate_batch ~pool:c.pool1 svc bs.(b)))
    done
  done;
  (* Kernels: the dense scan over this deployment's calibration matrix. *)
  let fm = e.Replay.cal.Calibration.feat_matrix in
  let std = Array.map (fun (x, _) -> Calibration.standardize_cls e.Replay.cal x) q in
  let ns_row, gbs = Replay.kernel_scan fm std ~seconds:0.3 in
  add "kernels.scan_ns_per_row" "ns" ns_row;
  add "kernels.scan_gb_per_s" "GB/s" gbs

let ledger c =
  let s = Tr.summary c.tr in
  let mean name = fst (s name) in
  let span_us name unit_name = add unit_name "us" (mean name *. us) in
  let children_us names = List.fold_left (fun a n -> a +. mean n) 0.0 names *. us in
  let cal4 =
    [ "calibration.standardize"; "calibration.query_distances"; "calibration.select";
      "calibration.distance_pvalue" ]
  in
  List.iter (fun n -> span_us n (n ^ "_us")) cal4;
  let parent = mean "detector.evaluate" *. us in
  add "detector.evaluate_us" "us" parent;
  add "committee.self_us" "us" (parent -. children_us cal4);
  add "detector.evaluate.residual_us" "us" (snd (s "detector.evaluate") *. us);
  let reg6 =
    [ "reg.standardize"; "reg.query_distances"; "reg.knn_truth"; "reg.assign_cluster";
      "reg.select"; "reg.distance_pvalue" ]
  in
  List.iter (fun n -> span_us n (n ^ "_us")) reg6;
  let rparent = mean "reg.evaluate" *. us in
  add "reg.evaluate_us" "us" rparent;
  add "reg.committee.self_us" "us" (rparent -. children_us reg6);
  add "reg.evaluate.residual_us" "us" (snd (s "reg.evaluate") *. us);
  let b = mean "service.batch" and bseq = mean "service.batch_seq" in
  add "service.batch_ms" "ms" (b *. ms);
  add "service.batch_seq_ms" "ms" (bseq *. ms);
  add "pool.speedup" "ratio" (bseq /. b)

(* {2 Workloads} *)

(* Set-up, repeated: raw calibration triples to the first verdict. *)
let setup c triples ~stream q0 =
  let times =
    Array.init c.d.setup_reps (fun _ ->
        let t0 = Tr.now () in
        let tel =
          if c.trace then Some (Telemetry.create (Prom_obs.create_registry ())) else None
        in
        let svc = Service.create ?telemetry:tel ~config:(config c.d) triples in
        let st = if stream then Some (stream_of ?telemetry:tel c svc) else None in
        ignore (Service.should_accept svc ~features:(fst q0) ~proba:(snd q0));
        (Tr.now () -. t0, (svc, st, tel)))
  in
  add "setup_s" "s" (Tr.median (Array.map fst times));
  snd times.(Array.length times - 1)

let index_gate c svc =
  let present = Calibration.index_of_cls (Replay.cls_of_service svc).Replay.cal <> None in
  gate "kNN index present on feedback only" (present = (c.workload = "feedback"))

let first_pair (qs : World.query array) = (qs.(0).x, qs.(0).p)

let embed c =
  let w = World.make ~seed:c.seed () in
  let triples = World.calibration w c.d.n in
  let qs = World.queries w 4096 in
  let svc, _, _ = setup c triples ~stream:false (first_pair qs) in
  index_gate c svc;
  gate "cls batch = sequential = should_accept"
    (Inproc.cls_gate ~pool:c.pool ~pool1:c.pool1 svc (Array.sub qs 0 256));
  quality_phase c w;
  let det = reg_detector c w in
  let s = c.seconds in
  interleave
    [
      cls_job c ~pool:c.pool svc qs ~seconds:(0.25 *. s);
      reg_job c det qs ~seconds:(0.15 *. s);
      single_job svc qs ~seconds:(0.1 *. s);
      inproc_open_job c svc qs ~seconds:(0.35 *. s);
      admit_job c w svc ~seconds:(0.15 *. s);
    ];
  if c.trace then begin
    traced_reg c det qs;
    traced_cls c svc qs
  end;
  add "peak_rss_mb" "MiB" (Tr.peak_rss_mb "self")

let feedback c =
  let w = World.make ~seed:c.seed () in
  let triples = World.calibration w c.d.n in
  let qs = World.queries w 4096 in
  let svc, stream, tel = setup c triples ~stream:true (first_pair qs) in
  let stream = Option.get stream in
  index_gate c svc;
  gate "cls batch = sequential = should_accept"
    (Inproc.cls_gate ~pool:c.pool ~pool1:c.pool1 svc (Array.sub qs 0 256));
  quality_phase c w;
  let s = c.seconds in
  (* Reads beside writes: this domain reads in a closed loop while a
     second domain admits on its fixed schedule. *)
  let samples = World.relabeled w 4096 in
  let admitter =
    Domain.spawn (fun () ->
        Inproc.admits stream samples ~rate:c.d.admit_rate ~seconds:(0.5 *. s))
  in
  interleave [ cls_job c ~pool:c.pool1 svc qs ~seconds:(0.5 *. s) ];
  report_admits c stream [| Domain.join admitter |];
  let q = Inproc.pairs (Array.sub qs 0 256) in
  let restored = Service.of_snapshot (Stream.snapshot stream) in
  gate "final store = service restored from Stream.snapshot"
    (Inproc.all2 Inproc.same_cls
       (Service.evaluate_batch ~pool:c.pool1 svc q)
       (Service.evaluate_batch ~pool:c.pool1 restored q));
  let det = reg_detector c w in
  interleave
    [
      reg_job c det qs ~seconds:(0.1 *. s);
      single_job svc qs ~seconds:(0.05 *. s);
      inproc_open_job c svc qs ~seconds:(0.35 *. s);
    ];
  if c.trace then begin
    traced_reg c det qs;
    traced_cls c svc qs;
    Option.iter
      (fun tel ->
        add "knn_index.rebuilds" "count"
          (Prom_obs.Counter.value (Telemetry.index_metrics tel).Calibration.ix_rebuilds))
      tel
  end;
  add "peak_rss_mb" "MiB" (Tr.peak_rss_mb "self")

(* Per-layer series of one HTTP phase, from its [/metrics] deltas and
   the client's own samples. *)
let report_http_layers suffix (wins : Httpload.phase array) d =
  let all f = Array.concat (Array.to_list (Array.map f wins)) in
  let lat = all (fun (r : Httpload.phase) -> r.lat) in
  let cold_lat = all (fun (r : Httpload.phase) -> r.cold_lat) in
  let failed = Array.fold_left (fun a (r : Httpload.phase) -> a + r.failed) 0 wins in
  let per a b = if b > 0.0 then a /. b else 0.0 in
  let server_ms =
    per (d "prom_http_request_seconds_sum") (d "prom_http_request_seconds_count") *. ms
  in
  add ("batcher.batch_size_mean" ^ suffix) "queries"
    (per (d "prom_http_batch_size_sum") (d "prom_http_batch_size_count"));
  add ("batcher.batches" ^ suffix) "count" (d "prom_http_batch_size_count");
  add ("server.request_ms_mean" ^ suffix) "ms" server_ms;
  add ("wire.ms_mean" ^ suffix) "ms"
    ((Tr.mean (Array.of_list (List.filter Float.is_finite (Array.to_list lat))) *. ms)
    -. server_ms);
  add ("evloop.iteration_us_mean" ^ suffix) "us"
    (per (d "prom_http_evloop_iteration_seconds_sum")
       (d "prom_http_evloop_iteration_seconds_count")
    *. us);
  add ("tenant.cold.batch_share" ^ suffix) "ratio"
    (per (d "prom_tenant_batch_share{tenant=\"cold\"}") (d "prom_tenant_batch_share{"));
  add ("tenant.cold.req_ms_p99" ^ suffix) "ms" (p99 cold_lat *. ms);
  add ("http.status_503" ^ suffix) "count" (d "prom_http_requests_total{code=\"503\"");
  add ("http.failed" ^ suffix) "count" (float_of_int failed)

(* The wire format's cost on this workload's own bodies: parse every
   request body, encode every response the server would send. *)
let report_jsonx (mix : Httpload.mix) =
  let time_per xs f =
    let t0 = Tr.now () in
    for _ = 1 to 20 do
      Array.iter f xs
    done;
    (Tr.now () -. t0) /. float_of_int (20 * Array.length xs) *. us
  in
  let bodies = Array.concat [ mix.hot_single; mix.hot_batch; mix.cold_single ] in
  add "jsonx.parse_us_per_request" "us"
    (time_per bodies (fun b -> ignore (J.parse b.Httpload.json)));
  let one (v : Detector.cls_verdict) =
    J.Obj
      [
        ("verdict", J.Str (if v.drifted then "reject" else "accept"));
        ("predicted", J.Num (float_of_int v.predicted));
        ("credibility", J.Num v.mean_credibility);
        ("confidence", J.Num v.mean_confidence);
        ("drifted", J.Bool v.drifted);
      ]
  in
  let responses =
    Array.map
      (fun (b : Httpload.body) ->
        if Array.length b.expect = 1 then one b.expect.(0)
        else J.Obj [ ("results", J.Arr (Array.to_list (Array.map one b.expect))) ])
      bodies
  in
  add "jsonx.encode_us_per_response" "us"
    (time_per responses (fun r -> ignore (J.to_string r)))

let http c =
  let s = c.seconds in
  let times =
    Array.init c.d.setup_reps (fun i ->
        let child, dt = Httpload.spawn ~seed:c.seed in
        if i < c.d.setup_reps - 1 then Httpload.stop child;
        (dt, child))
  in
  add "setup_s" "s" (Tr.median (Array.map fst times));
  let child = snd times.(c.d.setup_reps - 1) in
  let worlds = Httpload.tenant_worlds ~seed:c.seed in
  let svcs = Array.map (fun w -> Service.create (World.calibration w c.d.n)) worlds in
  let qs = Array.map (fun w -> World.queries w 1024) worlds in
  let mix = Httpload.make_mix svcs qs in
  let cl = Httpload.client ~port:child.Httpload.port mix in
  let rng = Prom_linalg.Rng.create (c.seed + 23) in
  (* Per-layer deltas accumulate per frozen rate across its windows. *)
  let deltas = Hashtbl.create 4 in
  let run ~phase:name ~rate ~seconds =
    let m0 = if c.trace then Httpload.metrics_text ~port:child.port else "" in
    let r = Httpload.run cl ~rng ~rate ~seconds in
    if c.trace then
      Hashtbl.add deltas name (m0, Httpload.metrics_text ~port:child.port, r);
    phase "http_open_loop" ~ops:r.sent ~fails:r.failed;
    gate "served verdicts = direct" (r.mismatched = 0);
    add_late r.late;
    { Inproc.lat = r.lat; late = r.late }
  in
  ignore (Httpload.run cl ~rng ~rate:c.d.light ~seconds:0.5);
  interleave [ open_job c ~seconds:(0.6 *. s) run ];
  if c.trace then
    List.iter
      (fun name ->
        let ws = Hashtbl.find_all deltas name in
        let d prefix =
          List.fold_left
            (fun a (m0, m1, _) -> a +. Httpload.scrape m1 prefix -. Httpload.scrape m0 prefix)
            0.0 ws
        in
        report_http_layers ("." ^ name) (Array.of_list (List.map (fun (_, _, r) -> r) ws)) d)
      [ "light"; "busy" ];
  add "peak_rss_mb" "MiB" (Httpload.peak_rss_mb child);
  Httpload.close_client cl;
  Httpload.stop child;
  index_gate c svcs.(0);
  if c.trace then report_jsonx mix;
  (* The direct path on the hot tenant's own store. *)
  let hot = svcs.(0) and w = worlds.(0) and hq = qs.(0) in
  gate "cls batch = sequential = should_accept"
    (Inproc.cls_gate ~pool:c.pool ~pool1:c.pool1 hot (Array.sub hq 0 256));
  quality_phase c w;
  let det = reg_detector c w in
  interleave
    [
      cls_job c ~pool:c.pool hot hq ~seconds:(0.12 *. s);
      reg_job c det hq ~seconds:(0.1 *. s);
      single_job hot hq ~seconds:(0.08 *. s);
      admit_job c w hot ~seconds:(0.1 *. s);
    ];
  if c.trace then begin
    traced_reg c det hq;
    traced_cls c hot hq
  end

(* The metrics a mode prints, with their units, from BENCHMARK.json. *)
let declared ~trace =
  let ic = open_in_bin "BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let field k o = Option.get (J.member k o) in
  match J.parse text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
      List.map
        (fun m ->
          (Option.get (J.to_string_opt (field "name" m)), Option.get (J.to_string_opt (field "unit" m))))
        (Option.get (J.to_list (field (if trace then "per_layer" else "end_to_end") j)))

let print_result c =
  let late = Tr.Samples.to_array late_all in
  add "loadgen.late_ms_p99" "ms" (Tr.quantile late 0.99 *. ms);
  add "loadgen.late_ms_max" "ms" (Array.fold_left Float.max 0.0 late *. ms);
  if c.trace then ledger c;
  (* Every declared metric is printed. A per-layer metric of a layer the
     workload does not exercise reads 0; a missing end-to-end metric
     fails the run. *)
  let selected =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (m, _, _) -> m = name) !metrics with
        | Some (_, v, u) ->
            if u <> unit then gate ("unit of " ^ name) false;
            (name, v, unit)
        | None ->
            if not c.trace then gate ("measured " ^ name) false;
            (name, 0.0, unit))
      (declared ~trace:c.trace)
  in
  List.iter
    (fun (name, (ops, fails)) ->
      Printf.eprintf "phase %-16s attempted %7d failed %d\n" name ops fails)
    !phases;
  List.iter
    (fun (name, ok) -> Printf.eprintf "gate  %-50s %s\n" name (if ok then "pass" else "FAIL"))
    (List.rev !gates);
  let correct = List.for_all snd !gates in
  print_endline (J.to_string (host_block ~pool_domains:(Pool.size c.pool)));
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int !attempted));
            ("failed", J.Num (float_of_int !failed));
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, v, u) -> (n, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ]))
                   selected) );
          ]));
  correct && !failed = 0

let usage () =
  prerr_endline
    "usage: main.exe --workload embed|feedback|http --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  if List.assoc_opt "role" kv = Some "server" then Httpload.serve ~seed:(int "seed")
  else begin
    let workload = get "workload" in
    if not (List.mem workload [ "embed"; "feedback"; "http" ]) then usage ();
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    let c =
      {
        workload;
        seed = int "seed";
        seconds = float_of_int (int "seconds");
        trace;
        d = deployment workload;
        (* The shared default pool: calibration prep runs on it too, so
           the warm-up below warms the domains every phase uses. *)
        pool = Pool.default ();
        pool1 = Pool.create 1;
        tr = Tr.tracer ();
      }
    in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* The kernel backend is a lazy value that two domains must not
       force at once; force it here, before any pool runs. *)
    ignore (Prom_linalg.Kernels.active ());
    (* Keep every core busy for 2 s first: on an idle virtual machine
       the first seconds of parallel work run several times slower. *)
    let t0 = Tr.now () in
    while Tr.now () -. t0 < 2.0 do
      Pool.run_all c.pool
        (Array.make (Pool.size c.pool) (fun () ->
             let t = Tr.now () in
             while Tr.now () -. t < 0.01 do
               ()
             done))
    done;
    (match workload with "embed" -> embed c | "feedback" -> feedback c | _ -> http c);
    if trace then begin
      (try Unix.mkdir "perfbench/out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Tr.write_spans c.tr (Printf.sprintf "perfbench/out/trace-%s-%d.jsonl" workload c.seed)
    end;
    let ok = print_result c in
    Pool.shutdown c.pool;
    exit (if ok then 0 else 1)
  end
