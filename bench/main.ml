(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables 2-3, Figures 7-13) on the synthetic substrate, and
   closes with bechamel microbenchmarks of PROM's runtime overhead
   (paper Sec. 7.6). Run everything with [dune exec bench/main.exe];
   pass section names (e.g. [table2 fig8 overhead]) to run a subset. *)

open Prom
open Prom_tasks

let seed = 2025
let section_header title = Printf.printf "\n=== %s ===\n%!" title

let print_violin label samples =
  Format.printf "  %-24s %a@." label Metrics.pp_violin (Metrics.violin_of samples)

let print_metrics label (m : Detection_metrics.t) =
  Format.printf "  %-24s %a@." label Detection_metrics.pp m

(* The full suite is expensive; run it once and share across sections. *)
let suite = lazy (Suite.run ~scale:Suite.Full ~seed ())

let by_case results =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (r : Case_study.result) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl r.case) in
      Hashtbl.replace tbl r.case (r :: cur))
    results;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl [])

let table2 () =
  section_header "Table 2: summary of main evaluation results";
  let s = Lazy.force suite in
  let design, deploy, prom, detection = s.Suite.table2 in
  Printf.printf
    "  Perf-to-oracle: training %.3f | deployment %.3f | PROM-assisted %.3f\n" design
    deploy prom;
  Format.printf "  PROM detection (avg over C1-C4 x models): %a@." Detection_metrics.pp
    detection;
  Printf.printf
    "  (paper: 0.836 | 0.544 | 0.807; detection acc 86.8%% prec 86.0%% recall 96.2%% f1 90.8%%)\n"

let table3 () =
  section_header "Table 3: C5 DNN code generation - perf-to-oracle by BERT variant";
  let s = Lazy.force suite in
  Format.printf "%a@." Dnn_codegen.pp_result s.Suite.c5;
  Printf.printf
    "  (paper native: base 0.845 tiny 0.224 medium 0.668 large 0.703; PROM: 0.794/0.810/0.808)\n"

let fig7 () =
  section_header "Figure 7: design vs deployment performance distributions";
  let s = Lazy.force suite in
  List.iter
    (fun (case, results) ->
      Printf.printf "  -- %s --\n" case;
      List.iter
        (fun (r : Case_study.result) ->
          print_violin (r.model_name ^ " design") r.design_perf;
          print_violin (r.model_name ^ " deploy") r.deploy_perf)
        results)
    (by_case (Lazy.force suite).Suite.classification_results);
  ignore s

let fig8 () =
  section_header "Figure 8: PROM drift-detection performance per case study and model";
  let s = Lazy.force suite in
  List.iter
    (fun (case, results) ->
      Printf.printf "  -- %s --\n" case;
      List.iter
        (fun (r : Case_study.result) -> print_metrics r.model_name r.detection)
        results)
    (by_case s.Suite.classification_results)

let fig9 () =
  section_header "Figure 9: incremental learning restores deployment performance";
  let s = Lazy.force suite in
  List.iter
    (fun (case, results) ->
      Printf.printf "  -- %s --\n" case;
      List.iter
        (fun (r : Case_study.result) ->
          print_violin (r.model_name ^ " native") r.deploy_perf;
          print_violin (r.model_name ^ " +PROM") r.prom_perf;
          Printf.printf "      (relabeled %d of %d flagged)\n" r.relabeled
            (int_of_float
               (r.flagged_fraction *. float_of_int (Array.length r.deploy_perf))))
        results)
    (by_case s.Suite.classification_results)

let geomean_f1 results pick =
  let f1s =
    List.filter_map
      (fun (r : Case_study.result) ->
        match pick r with
        | Some (m : Detection_metrics.t) ->
            Some (Stdlib.max 0.01 m.Detection_metrics.f1)
        | None -> None)
      results
  in
  Prom_linalg.Stats.geomean (Array.of_list f1s)

let fig10 () =
  section_header "Figure 10: geomean F1 vs baseline CP methods (C1-C4)";
  let s = Lazy.force suite in
  let results = s.Suite.classification_results in
  let prom_f1 = geomean_f1 results (fun r -> Some r.detection) in
  Printf.printf "  %-12s %.3f\n" "PROM" prom_f1;
  List.iter
    (fun name ->
      let f1 = geomean_f1 results (fun r -> List.assoc_opt name r.baseline_metrics) in
      Printf.printf "  %-12s %.3f\n" name f1)
    [ "tesseract"; "rise"; "naive-cp" ];
  Printf.printf "  (paper: PROM > TESSERACT (+17.6%%) > RISE > naive CP)\n"

let fig11 () =
  section_header "Figure 11: individual nonconformity functions vs the ensemble";
  let s = Lazy.force suite in
  List.iter
    (fun (case, results) ->
      Printf.printf "  -- %s --\n" case;
      let avg name pick =
        let vals = List.map pick results in
        Printf.printf "    %-8s f1=%.3f\n" name
          (Prom_linalg.Stats.mean (Array.of_list vals))
      in
      avg "ensemble" (fun (r : Case_study.result) -> r.detection.Detection_metrics.f1);
      List.iter
        (fun fn_name ->
          avg fn_name (fun r ->
              match List.assoc_opt fn_name r.per_function with
              | Some m -> m.Detection_metrics.f1
              | None -> 0.0))
        [ "LAC"; "TopK"; "APS"; "RAPS" ])
    (by_case s.Suite.classification_results)

let fig12 () =
  section_header "Figure 12: training vs incremental-learning overhead (seconds)";
  let s = Lazy.force suite in
  List.iter
    (fun (case, results) ->
      let mean f =
        Prom_linalg.Stats.mean
          (Array.of_list (List.map f results))
      in
      Printf.printf "  %-28s initial %.2fs | incremental %.2fs\n" case
        (mean (fun (r : Case_study.result) -> r.train_time))
        (mean (fun r -> r.retrain_time)))
    (by_case s.Suite.classification_results);
  Printf.printf "  (paper: initial training hours-to-a-day; incremental < 1 hour)\n"

(* Sensitivity analyses (Figure 13) train one model per sweep and vary
   only the detector configuration. *)

let sensitivity_setup () =
  let scenario = Loop_vectorization.scenario ~loops_per_family:40 ~seed () in
  let spec = List.nth Loop_vectorization.models 2 (* MLP *) in
  let open Prom_ml in
  let raw = Array.map spec.Case_study.encode scenario.Case_study.train_w in
  let scaler = Dataset.Scaler.fit (Dataset.create raw scenario.Case_study.train_y) in
  let encode w = Dataset.Scaler.transform scaler (spec.Case_study.encode w) in
  let pool =
    Dataset.create (Array.map (Dataset.Scaler.transform scaler) raw)
      scenario.Case_study.train_y
  in
  let train, calibration = Framework.data_partitioning ~calibration_ratio:0.25 ~seed pool in
  let model = spec.Case_study.trainer.Model.train train in
  let drift_x = Array.map encode scenario.Case_study.drift_w in
  let mispredicted =
    Array.mapi
      (fun i x ->
        Metrics.mispredicted
          ~perf:(scenario.Case_study.perf scenario.Case_study.drift_w.(i)
                   (Model.predict model x)))
      drift_x
  in
  (model, calibration, drift_x, mispredicted)

let metrics_for detector drift_x mispredicted =
  let flagged =
    Array.map (fun x -> snd (Detector.Classification.predict detector x)) drift_x
  in
  Detection_metrics.compute ~flagged ~mispredicted

let fig13a () =
  section_header "Figure 13a: sensitivity to the significance threshold (C2, MLP)";
  let model, calibration, drift_x, mispredicted = sensitivity_setup () in
  List.iter
    (fun epsilon ->
      let config = { Config.default with Config.epsilon } in
      let det =
        Detector.Classification.create ~config ~model ~feature_of:Fun.id calibration
      in
      let m = metrics_for det drift_x mispredicted in
      Format.printf "  epsilon=%.2f %a@." epsilon Detection_metrics.pp m)
    [ 0.02; 0.05; 0.1; 0.2; 0.3; 0.5 ]

let fig13c () =
  section_header "Figure 13c: sensitivity to the Gaussian scale parameter (C2, MLP)";
  let model, calibration, drift_x, mispredicted = sensitivity_setup () in
  List.iter
    (fun gaussian_c ->
      let config = { Config.default with Config.gaussian_c } in
      let det =
        Detector.Classification.create ~config ~model ~feature_of:Fun.id calibration
      in
      let m = metrics_for det drift_x mispredicted in
      Format.printf "  c=%.1f %a@." gaussian_c Detection_metrics.pp m)
    [ 0.5; 1.0; 2.0; 3.0; 4.0; 6.0 ]

let fig13b () =
  section_header "Figure 13b: sensitivity to the cluster count (C5 regression)";
  (* Rebuild the C5 detector with forced cluster counts and measure
     detection on BERT-medium samples. *)
  let open Prom_ml in
  let open Prom_synth in
  let rng = Prom_linalg.Rng.create seed in
  let pairs net n =
    Array.init n (fun _ ->
        let w = Schedule.sample_workload rng net in
        (w, Schedule.random_schedule rng))
  in
  let base = pairs Schedule.Bert_base 360 in
  let feats = Array.map (fun (w, s) -> Schedule.feature_vector w s) base in
  let scaler = Dataset.Scaler.fit (Dataset.create feats (Array.map (fun _ -> 0.0) base)) in
  let encode (w, s) =
    let z = Dataset.Scaler.transform scaler (Schedule.feature_vector w s) in
    let tokens =
      Array.mapi
        (fun i v ->
          let b = Stdlib.max 0 (Stdlib.min 7 (int_of_float ((v +. 2.0) *. 2.0))) in
          1 + (i * 8) + b)
        z
    in
    Prom_nn.Encoding.Seq.encode { Prom_nn.Encoding.Seq.max_len = 13; vocab = 1 + (13 * 8) } tokens
  in
  let target (w, s) = log (Schedule.throughput w s) in
  let data = Dataset.create (Array.map encode base) (Array.map target base) in
  let train, calibration = Framework.data_partitioning ~calibration_ratio:0.2 ~seed data in
  let model = Gradient_boosting.train_regressor train in
  let test = pairs Schedule.Bert_medium 120 in
  let test_x = Array.map encode test in
  let mispredicted =
    Array.mapi
      (fun i x ->
        abs_float (model.Model.predict x -. target test.(i)) > log 1.2)
      test_x
  in
  List.iter
    (fun k ->
      let det =
        Detector.Regression.create ~n_clusters:k ~model ~feature_of:Fun.id ~seed
          calibration
      in
      let flagged = Array.map (fun x -> snd (Detector.Regression.predict det x)) test_x in
      let m = Detection_metrics.compute ~flagged ~mispredicted in
      Format.printf "  k=%-2d %a@." k Detection_metrics.pp m)
    [ 2; 4; 6; 8; 10; 12 ]

let fig13d () =
  section_header "Figure 13d: coverage deviation across case studies";
  let s = Lazy.force suite in
  List.iter
    (fun (case, results) ->
      let devs =
        List.map
          (fun (r : Case_study.result) -> r.coverage.Assessment.deviation)
          results
      in
      let arr = Array.of_list devs in
      Printf.printf "  %-28s mean dev %.3f (min %.3f max %.3f)\n" case
        (Prom_linalg.Stats.mean arr)
        (Array.fold_left min arr.(0) arr)
        (Array.fold_left max arr.(0) arr))
    (by_case s.Suite.classification_results);
  Printf.printf "  C5 (regression)               dev %.3f\n"
    (Lazy.force suite).Suite.c5.Dnn_codegen.coverage.Assessment.deviation;
  Printf.printf "  (paper: geomean 2.5%%, thread coarsening 4.4%%)\n"

(* Runtime overhead (paper Sec. 7.6): bechamel microbenchmarks of the
   per-sample detection cost. *)
let overhead () =
  section_header "Runtime overhead: bechamel microbenchmarks (Sec. 7.6)";
  let open Prom_ml in
  let scenario = Thread_coarsening.scenario ~kernels_per_suite:110 ~seed () in
  let spec = List.nth Thread_coarsening.models 0 in
  let raw = Array.map spec.Case_study.encode scenario.Case_study.train_w in
  let scaler = Dataset.Scaler.fit (Dataset.create raw scenario.Case_study.train_y) in
  let pool =
    Dataset.create (Array.map (Dataset.Scaler.transform scaler) raw)
      scenario.Case_study.train_y
  in
  let train, calibration = Framework.data_partitioning ~calibration_ratio:0.25 ~seed pool in
  let model = spec.Case_study.trainer.Model.train train in
  let det = Detector.Classification.create ~model ~feature_of:Fun.id calibration in
  let sample =
    Dataset.Scaler.transform scaler (spec.Case_study.encode scenario.Case_study.drift_w.(0))
  in
  let open Bechamel in
  let test_eval =
    Test.make ~name:"detector-evaluate" (Staged.stage (fun () ->
        ignore (Detector.Classification.evaluate det sample)))
  in
  let test_predict =
    Test.make ~name:"model-predict-proba" (Staged.stage (fun () ->
        ignore (model.Model.predict_proba sample)))
  in
  let test_sets =
    Test.make ~name:"prediction-sets" (Staged.stage (fun () ->
        ignore (Detector.Classification.prediction_sets det sample)))
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
        Toolkit.Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-24s %.1f ns/call\n" name est
        | _ -> Printf.printf "  %-24s (no estimate)\n" name)
      results
  in
  List.iter benchmark [ test_eval; test_predict; test_sets ];
  Printf.printf "  (paper: scores < 10 ms, drift detection < 2 ms on a low-end laptop)\n"

(* Inference-engine head-to-head: the seed's sort-based sequential hot
   path vs the batched top-k engine, on a synthetic detector with a
   large calibration set. Emits queries/sec to a JSON file so future
   PRs can track the trajectory. *)

module Seed_path = struct
  (* The seed implementation of the per-query hot path, kept verbatim
     for the comparison: full O(n log n) sorts with polymorphic
     compare, list-building kNN scores, and per-query rebuilds of the
     calibration feature array. *)
  open Prom_linalg
  open Prom_ml

  let knn_distance_score feats v =
    let ds = ref [] in
    Array.iteri (fun _ f -> ds := Distance.euclidean f v :: !ds) feats;
    let ds = Array.of_list !ds in
    Array.sort compare ds;
    let k = Stdlib.min 5 (Array.length ds) in
    if k = 0 then 0.0
    else begin
      let acc = ref 0.0 in
      for i = 0 to k - 1 do
        acc := !acc +. ds.(i)
      done;
      !acc /. float_of_int k
    end

  let distance_pvalue_of loo score =
    let n = Array.length loo in
    if n = 0 then 1.0
    else begin
      let rec first_geq lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if loo.(mid) >= score then first_geq lo mid else first_geq (mid + 1) hi
      in
      let at_least = n - first_geq 0 n in
      let p = float_of_int (at_least + 1) /. float_of_int (n + 1) in
      let max_loo = loo.(n - 1) in
      if at_least = 0 && max_loo > 0.0 && score > max_loo then
        p *. exp (-4.0 *. ((score /. max_loo) -. 1.0))
      else p
    end

  let select_subset ~tau ~config entries ~feature_of_entry test_features =
    let n = Array.length entries in
    if n = 0 then [||]
    else begin
      let ranked =
        Array.mapi
          (fun i e -> (i, Distance.euclidean (feature_of_entry e) test_features))
          entries
      in
      Array.sort (fun (_, d1) (_, d2) -> compare d1 d2) ranked;
      let keep =
        if n < config.Config.select_all_below then n
        else Stdlib.max 1 (int_of_float (config.Config.select_ratio *. float_of_int n))
      in
      Array.init keep (fun r ->
          let i, dist = ranked.(r) in
          let weight = exp (-.(dist *. dist) /. tau) in
          { Calibration.index = i; entry = entries.(i); weight; distance = dist })
    end

  let evaluate ~config ~committee ~(model : Model.classifier)
      (calibration : Calibration.cls) x =
    let proba = model.Model.predict_proba x in
    let predicted = Vec.argmax proba in
    let feats = Calibration.standardize_cls calibration x in
    let selected =
      select_subset ~tau:calibration.Calibration.tau ~config
        calibration.Calibration.entries
        ~feature_of_entry:(fun e -> e.Calibration.features)
        feats
    in
    let n_classes = model.Model.n_classes in
    let distance_pvalue =
      distance_pvalue_of calibration.Calibration.loo_distances
        (knn_distance_score
           (Array.map (fun e -> e.Calibration.features) calibration.Calibration.entries)
           feats)
    in
    let experts =
      List.map
        (fun fn ->
          let pvalues = Pvalue.classification_all ~fn ~selected ~proba ~n_classes () in
          let set_pvalues =
            Pvalue.classification_all ~smooth:false ~fn ~selected ~proba ~n_classes ()
          in
          Scores.expert_verdict ~distance_pvalue ~set_pvalues
            ~discrete:fn.Nonconformity.cls_discrete ~config
            ~expert:fn.Nonconformity.cls_name ~pvalues ~predicted ())
        committee
    in
    let mean_of f = Prom_linalg.Stats.mean (Array.of_list (List.map f experts)) in
    {
      Detector.predicted;
      proba;
      experts;
      drifted = Scores.committee_decision ~config experts;
      mean_credibility = mean_of (fun v -> v.Scores.credibility);
      mean_confidence = mean_of (fun v -> v.Scores.confidence);
    }
end

module Indep_path = struct
  (* The pre-pipeline hot path, reconstructed from the still-public
     independent per-scan APIs: every per-query statistic walks the
     calibration matrix itself (two scans per classification query,
     four per regression query). The shared-scan engine must beat this
     arm while producing bit-identical verdicts. *)
  open Prom_linalg
  open Prom_ml

  let evaluate_cls ~config ~committee ~committee_scores ~entry_labels
      ~(model : Model.classifier) (cal : Calibration.cls) x =
    let proba = model.Model.predict_proba x in
    let predicted = Vec.argmax proba in
    let feats = Calibration.standardize_cls cal x in
    let selection =
      Calibration.select_packed ~tau:cal.Calibration.tau
        ~featmat:cal.Calibration.feat_matrix ~config cal.Calibration.entries
        ~feature_of_entry:(fun e -> e.Calibration.features)
        feats
    in
    let n_classes = model.Model.n_classes in
    let distance_pvalue = Calibration.distance_pvalue_cls cal feats in
    let experts =
      List.map2
        (fun fn entry_scores ->
          let test_scores =
            Array.init n_classes (fun label -> fn.Nonconformity.cls_score ~proba ~label)
          in
          let pvalues, set_pvalues =
            Pvalue.classification_all_table ~entry_scores ~entry_labels ~selection
              ~test_scores ~n_classes ()
          in
          Scores.expert_verdict ~distance_pvalue ~set_pvalues
            ~discrete:fn.Nonconformity.cls_discrete ~config
            ~expert:fn.Nonconformity.cls_name ~pvalues ~predicted ())
        committee committee_scores
    in
    let mean_of f = Stats.mean (Array.of_list (List.map f experts)) in
    {
      Detector.predicted;
      proba;
      experts;
      drifted = Scores.committee_decision ~config experts;
      mean_credibility = mean_of (fun v -> v.Scores.credibility);
      mean_confidence = mean_of (fun v -> v.Scores.confidence);
    }

  let evaluate_reg ~config ~committee ~committee_scores ~entry_clusters
      ~(model : Model.regressor) (cal : Calibration.reg) x =
    let predicted_value = model.Model.predict x in
    let feats = Calibration.standardize_reg cal x in
    let knn_estimate, knn_spread =
      Calibration.knn_truth cal feats ~k:config.Config.knn_k
    in
    let cluster = Calibration.assign_cluster cal feats in
    let selection =
      Calibration.select_packed ~tau:cal.Calibration.rtau
        ~featmat:cal.Calibration.rfeat_matrix ~config cal.Calibration.rentries
        ~feature_of_entry:(fun e -> e.Calibration.rfeatures)
        feats
    in
    let n_clusters = cal.Calibration.n_clusters in
    let distance_pvalue = Calibration.distance_pvalue_reg cal feats in
    let reg_experts =
      List.map2
        (fun fn entry_scores ->
          let test_score =
            fn.Nonconformity.reg_score ~pred:predicted_value ~truth:knn_estimate
              ~spread:(Stdlib.max knn_spread 1e-6)
          in
          let pvalues, set_pvalues =
            Pvalue.regression_all_table ~entry_scores ~entry_clusters ~selection
              ~n_clusters ~test_score ()
          in
          Scores.expert_verdict ~distance_pvalue ~set_pvalues ~use_confidence:false
            ~config ~expert:fn.Nonconformity.reg_name ~pvalues ~predicted:cluster ())
        committee committee_scores
    in
    let mean_of f = Stats.mean (Array.of_list (List.map f reg_experts)) in
    {
      Detector.predicted_value;
      cluster;
      knn_estimate;
      reg_experts;
      reg_drifted = Scores.committee_decision ~config reg_experts;
      reg_mean_credibility = mean_of (fun v -> v.Scores.credibility);
      reg_mean_confidence = mean_of (fun v -> v.Scores.confidence);
    }

  let cls_tables ~committee (cal : Calibration.cls) =
    ( List.map
        (fun fn ->
          Array.map
            (fun e ->
              fn.Nonconformity.cls_score ~proba:e.Calibration.proba
                ~label:e.Calibration.label)
            cal.Calibration.entries)
        committee,
      Array.map (fun e -> e.Calibration.label) cal.Calibration.entries )

  let reg_tables ~committee (cal : Calibration.reg) =
    ( List.map
        (fun fn ->
          Array.map
            (fun e ->
              fn.Nonconformity.reg_score ~pred:e.Calibration.rpred
                ~truth:e.Calibration.rproxy
                ~spread:(Stdlib.max e.Calibration.rspread 1e-6))
            cal.Calibration.rentries)
        committee,
      Array.map (fun e -> e.Calibration.cluster) cal.Calibration.rentries )
end

let ns_per_call ~quota test =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances test in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let est = ref nan in
  Hashtbl.iter
    (fun _ r -> match Analyze.OLS.estimates r with Some [ e ] -> est := e | _ -> ())
    results;
  !est

(* Interleaved min-of-rounds measurement for head-to-head comparisons:
   every round measures each variant once, in a fixed order, and each
   variant reports its fastest round. Sequential one-shot measurement
   biases whichever variant runs when the machine happens to be quiet
   (or after the major heap has grown); interleaving spreads that drift
   across all variants, and the min discards noise spikes, which only
   ever add time. *)
let ns_interleaved ~quota ~rounds tests =
  let best = Array.make (Array.length tests) infinity in
  for _ = 1 to rounds do
    Array.iteri
      (fun i (name, thunk) ->
        let ns =
          ns_per_call ~quota (Bechamel.Test.make ~name (Bechamel.Staged.stage thunk))
        in
        if ns < best.(i) then best.(i) <- ns)
      tests
  done;
  best

let inference_world ~n_cal ~n_queries =
  let open Prom_ml in
  let rng = Prom_linalg.Rng.create seed in
  let dim = 16 and n_classes = 4 in
  (* Class-dependent Gaussian blobs; the model is a fixed linear scorer
     so the benchmark isolates the detector overhead, mirroring the
     external-host setting where inference is cheap and PROM is the
     added cost. *)
  let weights =
    Array.init n_classes (fun _ ->
        Array.init dim (fun _ -> Prom_linalg.Rng.uniform rng ~lo:(-1.0) ~hi:1.0))
  in
  let predict_proba x =
    let scores = Array.map (fun w -> Prom_linalg.Vec.dot w x) weights in
    let m = Array.fold_left Stdlib.max neg_infinity scores in
    let exps = Array.map (fun s -> exp (s -. m)) scores in
    let z = Prom_linalg.Vec.sum exps in
    Prom_linalg.Vec.scale (1.0 /. z) exps
  in
  let model =
    { Model.n_classes; predict_proba; name = "linear-softmax"; state = Model.No_state }
  in
  let sample_x label =
    Array.init dim (fun j ->
        float_of_int (label * (1 + (j mod 3)))
        +. Prom_linalg.Rng.gaussian rng ~mu:0.0 ~sigma:1.5)
  in
  let labels = Array.init n_cal (fun i -> i mod n_classes) in
  let xs = Array.map sample_x labels in
  let calibration = Dataset.create xs labels in
  let queries = Array.init n_queries (fun i -> sample_x (i mod n_classes)) in
  (model, calibration, queries)

(* Regression-shaped workload: a cheap linear model over the same blob
   features, so the measurement isolates the detector. The regression
   hot path is where the shared scan pays most — four independent
   matrix scans per query collapse into one. *)
let reg_inference_world ~n_cal ~n_queries =
  let open Prom_ml in
  let rng = Prom_linalg.Rng.create (seed + 7) in
  let dim = 16 in
  let true_w = Array.init dim (fun _ -> Prom_linalg.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let model =
    {
      Model.predict = (fun x -> Prom_linalg.Vec.dot true_w x);
      name = "linear";
      reg_state = Model.No_state;
    }
  in
  let sample_x () =
    Array.init dim (fun _ -> Prom_linalg.Rng.gaussian rng ~mu:0.0 ~sigma:2.0)
  in
  let xs = Array.init n_cal (fun _ -> sample_x ()) in
  let ys =
    Array.map
      (fun x -> Prom_linalg.Vec.dot true_w x +. Prom_linalg.Rng.gaussian rng ~mu:0.0 ~sigma:0.1)
      xs
  in
  let calibration = Dataset.create xs ys in
  let queries = Array.init n_queries (fun _ -> sample_x ()) in
  (model, calibration, queries)

let inference_section ~n_cal ~n_queries ~quota ~json_path () =
  section_header
    (Printf.sprintf "Inference engine: batched top-k vs seed sequential (n=%d)" n_cal);
  let model, calibration, queries = inference_world ~n_cal ~n_queries in
  let config = Config.default in
  let committee = Nonconformity.default_committee in
  let det = Detector.Classification.create ~config ~committee ~model ~feature_of:Fun.id calibration in
  (* The same detector with a live metrics registry, to price the
     observability layer on the hot path. *)
  let registry = Prom_obs.create_registry () in
  let telemetry = Telemetry.create registry in
  let det_inst =
    Detector.Classification.create ~config ~committee ~telemetry ~model
      ~feature_of:Fun.id calibration
  in
  let cal = Calibration.prepare_classification ~config ~model ~feature_of:Fun.id calibration in
  let n_domains = Stdlib.max 2 (Prom_parallel.Pool.default_size ()) in
  let pool = Prom_parallel.Pool.create n_domains in
  (* Cross-check: batch results must equal the sequential map, and the
     seed path should agree with the new kernels on tie-free inputs. *)
  let seq = Array.map (Detector.Classification.evaluate det) queries in
  let batch = Detector.Classification.evaluate_batch ~pool det queries in
  let identical = seq = batch in
  Printf.printf "  batch = sequential (bit-identical): %b\n" identical;
  if not identical then failwith "inference bench: batch diverged from sequential";
  let inst = Array.map (Detector.Classification.evaluate det_inst) queries in
  Printf.printf "  instrumented = uninstrumented (bit-identical): %b\n" (inst = seq);
  if inst <> seq then failwith "inference bench: instrumentation changed verdicts";
  let seed_agree =
    let agree = ref 0 in
    Array.iteri
      (fun i q ->
        let v = Seed_path.evaluate ~config ~committee ~model cal q in
        if v = seq.(i) then incr agree)
      queries;
    !agree
  in
  Printf.printf "  seed path agrees on %d/%d queries\n" seed_agree (Array.length queries);
  (* The shared-scan engine against the independent per-scan arm: the
     verdicts must be bit-identical — only the number of matrix scans
     differs. *)
  let committee_scores, entry_labels = Indep_path.cls_tables ~committee cal in
  let indep =
    Array.map
      (Indep_path.evaluate_cls ~config ~committee ~committee_scores ~entry_labels ~model
         cal)
      queries
  in
  Printf.printf "  shared scan = independent scans (bit-identical): %b\n" (indep = seq);
  if indep <> seq then failwith "inference bench: shared scan diverged from independent scans";
  (* Regression-shaped workload: the shared scan replaces four
     independent matrix walks per query. *)
  let rmodel, rcal_data, rqueries = reg_inference_world ~n_cal ~n_queries in
  let rcommittee = Nonconformity.default_reg_committee in
  let rdet =
    Detector.Regression.create ~config ~committee:rcommittee ~n_clusters:4 ~model:rmodel
      ~feature_of:Fun.id ~seed:1 rcal_data
  in
  let rcal =
    Calibration.prepare_regression ~n_clusters:4 ~config ~model:rmodel ~feature_of:Fun.id
      ~seed:1 rcal_data
  in
  let rcommittee_scores, entry_clusters = Indep_path.reg_tables ~committee:rcommittee rcal in
  let rseq = Array.map (Detector.Regression.evaluate rdet) rqueries in
  let rindep =
    Array.map
      (Indep_path.evaluate_reg ~config ~committee:rcommittee
         ~committee_scores:rcommittee_scores ~entry_clusters ~model:rmodel rcal)
      rqueries
  in
  Printf.printf "  regression shared scan = independent scans (bit-identical): %b\n"
    (rindep = rseq);
  if rindep <> rseq then
    failwith "inference bench: regression shared scan diverged from independent scans";
  let rbatch = Detector.Regression.evaluate_batch ~pool rdet rqueries in
  if rbatch <> rseq then failwith "inference bench: regression batch diverged";
  (* All variants measured interleaved so machine drift cannot favour
     whichever arm happens to run last; [select-*] is the kernel-level
     head-to-head on one query. *)
  let q0 = queries.(0) in
  let rq0 = rqueries.(0) in
  let entries = cal.Calibration.entries in
  let feats = Calibration.standardize_cls cal q0 in
  let ns =
    ns_interleaved ~quota:(quota /. 2.0) ~rounds:3
      [|
        ( "seed-sequential",
          fun () -> ignore (Seed_path.evaluate ~config ~committee ~model cal q0) );
        ( "indep-sequential",
          fun () ->
            ignore
              (Indep_path.evaluate_cls ~config ~committee ~committee_scores
                 ~entry_labels ~model cal q0) );
        ("new-sequential", fun () -> ignore (Detector.Classification.evaluate det q0));
        ( "instrumented-sequential",
          fun () -> ignore (Detector.Classification.evaluate det_inst q0) );
        ( "new-batch",
          fun () -> ignore (Detector.Classification.evaluate_batch ~pool det queries) );
        ( "reg-indep-sequential",
          fun () ->
            ignore
              (Indep_path.evaluate_reg ~config ~committee:rcommittee
                 ~committee_scores:rcommittee_scores ~entry_clusters ~model:rmodel rcal
                 rq0) );
        ("reg-new-sequential", fun () -> ignore (Detector.Regression.evaluate rdet rq0));
        ( "reg-new-batch",
          fun () -> ignore (Detector.Regression.evaluate_batch ~pool rdet rqueries) );
        ( "select-sort",
          fun () ->
            ignore
              (Seed_path.select_subset ~tau:cal.Calibration.tau ~config entries
                 ~feature_of_entry:(fun e -> e.Calibration.features)
                 feats) );
        ( "select-topk",
          fun () ->
            ignore
              (Calibration.select_subset ~tau:cal.Calibration.tau
                 ~featmat:cal.Calibration.feat_matrix ~config entries
                 ~feature_of_entry:(fun e -> e.Calibration.features)
                 feats) );
      |]
  in
  let nqf = float_of_int (Array.length queries) in
  let seed_ns = ns.(0) and indep_ns = ns.(1) and new_ns = ns.(2) and inst_ns = ns.(3) in
  let batch_ns = ns.(4) /. nqf in
  let reg_indep_ns = ns.(5) and reg_new_ns = ns.(6) in
  let reg_batch_ns = ns.(7) /. nqf in
  let select_seed_ns = ns.(8) and select_new_ns = ns.(9) in
  let qps ns = 1e9 /. ns in
  Printf.printf "  seed sequential   %10.0f ns/query  (%8.0f queries/sec)\n" seed_ns
    (qps seed_ns);
  Printf.printf "  indep sequential  %10.0f ns/query  (%8.0f queries/sec)\n" indep_ns
    (qps indep_ns);
  Printf.printf "  new sequential    %10.0f ns/query  (%8.0f queries/sec)\n" new_ns
    (qps new_ns);
  let overhead_pct = (inst_ns -. new_ns) /. new_ns *. 100.0 in
  Printf.printf "  live registry     %10.0f ns/query  (%8.0f queries/sec, %+.1f%%)\n"
    inst_ns (qps inst_ns) overhead_pct;
  Printf.printf "  new batch (%d dom) %9.0f ns/query  (%8.0f queries/sec)\n" n_domains
    batch_ns (qps batch_ns);
  Printf.printf "  reg indep seq     %10.0f ns/query  (%8.0f queries/sec)\n" reg_indep_ns
    (qps reg_indep_ns);
  Printf.printf "  reg shared seq    %10.0f ns/query  (%8.0f queries/sec)\n" reg_new_ns
    (qps reg_new_ns);
  Printf.printf "  reg shared batch  %10.0f ns/query  (%8.0f queries/sec)\n" reg_batch_ns
    (qps reg_batch_ns);
  Printf.printf "  select_subset     sort %8.0f ns -> top-k %8.0f ns (%.1fx)\n"
    select_seed_ns select_new_ns (select_seed_ns /. select_new_ns);
  Printf.printf "  speedup: sequential %.2fx | batch %.2fx\n" (seed_ns /. new_ns)
    (seed_ns /. batch_ns);
  Printf.printf "  shared-scan speedup: classification %.2fx | regression %.2fx\n"
    (indep_ns /. new_ns) (reg_indep_ns /. reg_new_ns);
  let oc = open_out json_path in
  Printf.fprintf oc
    {|{
  "calibration_entries": %d,
  "batch_queries": %d,
  "num_domains": %d,
  "ns_per_query": {
    "seed_sequential": %.1f,
    "indep_sequential": %.1f,
    "new_sequential": %.1f,
    "instrumented_sequential": %.1f,
    "new_batch": %.1f,
    "reg_indep_sequential": %.1f,
    "reg_new_sequential": %.1f,
    "reg_new_batch": %.1f
  },
  "queries_per_sec": {
    "seed_sequential": %.1f,
    "new_sequential": %.1f,
    "instrumented_sequential": %.1f,
    "new_batch": %.1f
  },
  "speedup_vs_seed": {
    "new_sequential": %.3f,
    "new_batch": %.3f
  },
  "shared_scan_speedup": {
    "classification": %.3f,
    "regression": %.3f
  },
  "telemetry_overhead_pct": %.2f,
  "kernels_ns": {
    "select_subset_sort": %.1f,
    "select_subset_topk": %.1f
  }
}
|}
    n_cal (Array.length queries) n_domains seed_ns indep_ns new_ns inst_ns batch_ns
    reg_indep_ns reg_new_ns reg_batch_ns (qps seed_ns) (qps new_ns) (qps inst_ns)
    (qps batch_ns) (seed_ns /. new_ns) (seed_ns /. batch_ns) (indep_ns /. new_ns)
    (reg_indep_ns /. reg_new_ns) overhead_pct select_seed_ns select_new_ns;
  close_out oc;
  Printf.printf "  wrote %s\n" json_path;
  Prom_parallel.Pool.shutdown pool

let inference () =
  inference_section ~n_cal:1200 ~n_queries:64 ~quota:1.0
    ~json_path:"BENCH_inference.json" ()

(* Tiny-scale variant so CI (the [bench-smoke] alias) can exercise the
   whole harness in seconds. *)
let inference_smoke () =
  inference_section ~n_cal:250 ~n_queries:16 ~quota:0.05
    ~json_path:"BENCH_inference_smoke.json" ()

(* Calibration-preparation benchmark: the O(n^2 . d) prep scans (LOO
   conformal scores, pairwise-median temperature, regression LOO
   proxies) now stream the matrix through the symmetric tiled kernel in
   row blocks. Emits build times and kernel micro-benchmarks to JSON. *)
let prep_section ~n_cal ~quota ~json_path () =
  section_header
    (Printf.sprintf "Calibration preparation: tiled O(n^2.d) scans (n=%d)" n_cal);
  (* Kernel parity on random matrices before any timing is trusted: the
     tiled kernels promise exact equality with the scalar reference. *)
  let rng = Prom_linalg.Rng.create (seed + 13) in
  List.iter
    (fun (n, dim, nq) ->
      let rand_vec () =
        Array.init dim (fun _ -> Prom_linalg.Rng.uniform rng ~lo:(-10.0) ~hi:10.0)
      in
      let rows = Array.init n (fun _ -> rand_vec ()) in
      let fm = Prom_linalg.Featmat.of_rows rows in
      let qs = Array.init nq (fun _ -> rand_vec ()) in
      let out = Array.make (nq * n) nan in
      Prom_linalg.Featmat.sq_dists_block fm qs out;
      for q = 0 to nq - 1 do
        for i = 0 to n - 1 do
          if out.((q * n) + i) <> Prom_linalg.Distance.sq_euclidean rows.(i) qs.(q) then
            failwith "prep bench: sq_dists_block diverged from the scalar kernel"
        done
      done;
      let sout = Array.make (n * n) nan in
      Prom_linalg.Featmat.sq_dists_rows_block fm ~r0:0 ~r1:n sout;
      for r = 0 to n - 1 do
        for i = 0 to n - 1 do
          if sout.((r * n) + i) <> Prom_linalg.Distance.sq_euclidean rows.(r) rows.(i)
          then failwith "prep bench: sq_dists_rows_block diverged from the scalar kernel"
        done
      done)
    [ (60, 16, 8); (33, 13, 5); (17, 3, 2) ];
  Printf.printf "  kernel parity (block vs scalar): ok\n";
  let config = Config.default in
  let model, calibration, _ = inference_world ~n_cal ~n_queries:1 in
  let rmodel, rcalibration, _ = reg_inference_world ~n_cal ~n_queries:1 in
  (* Kernel micro-benchmark inputs: a query tile and a symmetric row
     block over the prepared matrix, each as independent row scans vs
     one blocked call. *)
  let cal =
    Calibration.prepare_classification ~config ~model ~feature_of:Fun.id calibration
  in
  let fm = cal.Calibration.feat_matrix in
  let n = Prom_linalg.Featmat.length fm in
  let dim = Prom_linalg.Featmat.dim fm in
  let qrng = Prom_linalg.Rng.create (seed + 17) in
  let tile_queries =
    Array.init 8 (fun _ ->
        Array.init dim (fun _ -> Prom_linalg.Rng.gaussian qrng ~mu:0.0 ~sigma:2.0))
  in
  let out = Array.make (8 * n) 0.0 in
  let rows16 = Stdlib.min 16 n in
  let sym_out = Array.make (rows16 * n) 0.0 in
  (* Interleaved min-of-rounds, same rationale as the inference section;
     the regression build fixes the cluster count because the gap
     statistic's own k-means sweep would otherwise dominate the build
     and hide the distance-scan cost. *)
  let ns =
    ns_interleaved ~quota:(quota /. 2.0) ~rounds:3
      [|
        ( "prepare-classification",
          fun () ->
            ignore
              (Calibration.prepare_classification ~config ~model ~feature_of:Fun.id
                 calibration) );
        ( "prepare-regression",
          fun () ->
            ignore
              (Calibration.prepare_regression ~n_clusters:4 ~config ~model:rmodel
                 ~feature_of:Fun.id ~seed:1 rcalibration) );
        ( "query8-row-scans",
          fun () ->
            Array.iter (fun q -> Prom_linalg.Featmat.sq_dists_into fm q out) tile_queries
        );
        ( "query8-block",
          fun () -> Prom_linalg.Featmat.sq_dists_block fm tile_queries out );
        ( "sym16-row-scans",
          fun () ->
            for r = 0 to rows16 - 1 do
              for i = 0 to n - 1 do
                sym_out.((r * n) + i) <- Prom_linalg.Featmat.sq_dist_rows fm r i
              done
            done );
        ( "sym16-block",
          fun () -> Prom_linalg.Featmat.sq_dists_rows_block fm ~r0:0 ~r1:rows16 sym_out
        );
      |]
  in
  let cls_prep_ns = ns.(0) and reg_prep_ns = ns.(1) in
  let query_rows_ns = ns.(2) and query_block_ns = ns.(3) in
  let sym_rows_ns = ns.(4) and sym_block_ns = ns.(5) in
  let ms ns = ns /. 1e6 in
  Printf.printf "  prepare_classification  %10.2f ms\n" (ms cls_prep_ns);
  Printf.printf "  prepare_regression      %10.2f ms (k-means k=4 included)\n"
    (ms reg_prep_ns);
  Printf.printf "  query tile (8 x %d)    row scans %8.0f ns -> block %8.0f ns (%.2fx)\n"
    n query_rows_ns query_block_ns
    (query_rows_ns /. query_block_ns);
  Printf.printf "  sym block  (%d x %d)  row scans %8.0f ns -> block %8.0f ns (%.2fx)\n"
    rows16 n sym_rows_ns sym_block_ns
    (sym_rows_ns /. sym_block_ns);
  let oc = open_out json_path in
  Printf.fprintf oc
    {|{
  "calibration_entries": %d,
  "dim": %d,
  "prep_ns": {
    "prepare_classification": %.1f,
    "prepare_regression_k4": %.1f
  },
  "kernels_ns": {
    "query8_row_scans": %.1f,
    "query8_block": %.1f,
    "sym16_row_scans": %.1f,
    "sym16_block": %.1f
  },
  "block_kernel_speedup": {
    "query_tile": %.3f,
    "symmetric_tile": %.3f
  }
}
|}
    n_cal dim cls_prep_ns reg_prep_ns query_rows_ns query_block_ns sym_rows_ns
    sym_block_ns
    (query_rows_ns /. query_block_ns)
    (sym_rows_ns /. sym_block_ns);
  close_out oc;
  Printf.printf "  wrote %s\n" json_path

let prep () = prep_section ~n_cal:1200 ~quota:1.0 ~json_path:"BENCH_prep.json" ()

let prep_smoke () =
  prep_section ~n_cal:250 ~quota:0.05 ~json_path:"BENCH_prep_smoke.json" ()

(* Snapshot store benchmark: how long a checkpoint takes to encode,
   write, and restore — the costs a deployment pays per retrain round
   and per crash recovery. The section also verifies that the reloaded
   detector reproduces the live one's verdicts bit for bit, so the
   [snapshot-smoke] variant doubles as the CI smoke check of the whole
   save -> load -> serve pipeline. *)
let snapshot_section ~n_cal ~repeats ~json_path () =
  section_header (Printf.sprintf "Snapshot store: save/load round trips (n=%d)" n_cal);
  let open Prom_ml in
  let rng = Prom_linalg.Rng.create seed in
  let dim = 16 in
  let xs =
    Array.init n_cal (fun i ->
        let mu = if i mod 2 = 0 then 0.0 else 2.5 in
        Array.init dim (fun _ -> Prom_linalg.Rng.gaussian rng ~mu ~sigma:1.0))
  in
  let data = Dataset.create xs (Array.init n_cal (fun i -> i mod 2)) in
  let model = Logistic.train data in
  let det = Detector.Classification.create ~model ~feature_of:Fun.id data in
  let snap = Snapshot.of_cls_detector det in
  let payload = Snapshot.encode snap in
  let dir = Filename.temp_dir "prom-bench-snap" "" in
  ignore (Snapshot.save ~dir snap : Prom_store.Store.info);
  let queries =
    Array.init 32 (fun _ ->
        Array.init dim (fun _ -> Prom_linalg.Rng.gaussian rng ~mu:1.0 ~sigma:2.0))
  in
  (match Snapshot.load_latest ~dir () with
  | Some (Snapshot.Cls s, _) ->
      let det' = Snapshot.to_cls_detector s in
      Array.iter
        (fun x ->
          let v = Detector.Classification.evaluate det x in
          let v' = Detector.Classification.evaluate det' x in
          if
            v.Detector.drifted <> v'.Detector.drifted
            || Int64.bits_of_float v.Detector.mean_credibility
               <> Int64.bits_of_float v'.Detector.mean_credibility
            || Int64.bits_of_float v.Detector.mean_confidence
               <> Int64.bits_of_float v'.Detector.mean_confidence
          then failwith "snapshot reload is not bit-identical")
        queries;
      Printf.printf "  reload bit-identical on %d queries: true\n" (Array.length queries)
  | _ -> failwith "snapshot reload failed");
  let time_ms f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repeats do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int repeats
  in
  let encode_ms = time_ms (fun () -> ignore (Snapshot.encode snap : string)) in
  let decode_ms = time_ms (fun () -> ignore (Snapshot.decode payload : Snapshot.t)) in
  let save_ms =
    time_ms (fun () -> ignore (Snapshot.save ~dir snap : Prom_store.Store.info))
  in
  let restore_ms =
    time_ms (fun () ->
        match Snapshot.load_latest ~dir () with
        | Some (Snapshot.Cls s, _) ->
            ignore (Snapshot.to_cls_detector s : Detector.Classification.t)
        | _ -> failwith "snapshot reload failed")
  in
  Printf.printf "  payload           %10d bytes (%d calibration entries)\n"
    (String.length payload) n_cal;
  Printf.printf "  encode            %10.3f ms\n" encode_ms;
  Printf.printf "  decode            %10.3f ms\n" decode_ms;
  Printf.printf "  save (disk)       %10.3f ms\n" save_ms;
  Printf.printf "  load + restore    %10.3f ms\n" restore_ms;
  let oc = open_out json_path in
  Printf.fprintf oc
    {|{
  "calibration_entries": %d,
  "payload_bytes": %d,
  "repeats": %d,
  "ms": {
    "encode": %.3f,
    "decode": %.3f,
    "save_disk": %.3f,
    "load_restore": %.3f
  }
}
|}
    n_cal (String.length payload) repeats encode_ms decode_ms save_ms restore_ms;
  close_out oc;
  Printf.printf "  wrote %s\n" json_path

let snapshot () =
  snapshot_section ~n_cal:1200 ~repeats:50 ~json_path:"BENCH_snapshot.json" ()

let snapshot_smoke () =
  snapshot_section ~n_cal:250 ~repeats:5 ~json_path:"BENCH_snapshot_smoke.json" ()

(* --- Pruned kNN index: sublinear calibration queries. ---

   Scan-vs-index head to head over synthetic clustered worlds, built
   through the restore constructors so the O(n²·d) preparation never
   runs (tau and the LOO reference are synthetic — both arms share
   them, so verdict parity is unaffected). The two arms are the same
   entries restored under different PROM_INDEX_MIN_N values, and every
   size first proves bit-identical verdicts (sequential and batched,
   classification at every size and regression at the largest) before
   anything is timed. *)

(* Gaussian blobs around fixed centers: the clustered geometry the
   coarse index exploits; queries come from the same distribution. *)
let index_blob_sampler rng ~dim =
  let n_blobs = 32 in
  let centers =
    Array.init n_blobs (fun _ ->
        Array.init dim (fun _ -> Prom_linalg.Rng.uniform rng ~lo:(-8.0) ~hi:8.0))
  in
  fun i ->
    let c = centers.(i mod n_blobs) in
    Array.init dim (fun j ->
        c.(j) +. Prom_linalg.Rng.gaussian rng ~mu:0.0 ~sigma:0.7)

(* A selective Eq. 1 policy (keep 1% past tiny sets): the regime the
   index targets — per-query neighbour demand small relative to n. *)
let index_config =
  { Config.default with Config.select_ratio = 0.005; select_all_below = 32 }

let with_index_threshold v f =
  Unix.putenv "PROM_INDEX_MIN_N" v;
  (* An empty value parses as invalid and falls back to the compiled
     default, so later sections see the stock policy. *)
  Fun.protect ~finally:(fun () -> Unix.putenv "PROM_INDEX_MIN_N" "") f

let index_identity_scaler ~dim =
  Prom_ml.Dataset.Scaler.of_params ~mu:(Array.make dim 0.0)
    ~sigma:(Array.make dim 1.0)

let index_synthetic_loo = Array.init 512 (fun i -> 0.05 *. float_of_int i)

(* The non-prunable regime of the streaming workload: 4 overlapping
   16-d class blobs (sigma 1.5 around means in [-1.5, 1.5]), where the
   cluster bounds skip almost nothing and every query computes nearly
   every row. *)
let overlap_blob_sampler rng ~dim =
  let means =
    Array.init 4 (fun _ ->
        Array.init dim (fun _ -> Prom_linalg.Rng.uniform rng ~lo:(-1.5) ~hi:1.5))
  in
  fun i ->
    let m = means.(i mod 4) in
    Array.init dim (fun j -> m.(j) +. Prom_linalg.Rng.gaussian rng ~mu:0.0 ~sigma:1.5)

let overlap_config = { Config.default with Config.select_ratio = 0.01 }

let index_cls_world ?(config = index_config) ?(sampler = index_blob_sampler) ~rng ~n ~dim
    () =
  let open Prom_ml in
  let sample = sampler rng ~dim in
  let feats = Array.init n sample in
  let w = Array.init dim (fun _ -> Prom_linalg.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let predict_proba x =
    let p = 1.0 /. (1.0 +. exp (-.(Prom_linalg.Vec.dot w x))) in
    [| 1.0 -. p; p |]
  in
  let model =
    { Model.n_classes = 2; predict_proba; name = "linear-sigmoid"; state = Model.No_state }
  in
  let entries =
    Array.mapi
      (fun i f -> { Calibration.features = f; label = i land 1; proba = predict_proba f })
      feats
  in
  let restore () =
    Calibration.restore_cls ~entries ~config
      ~scaler:(index_identity_scaler ~dim) ~tau:1.0 ~loo_distances:index_synthetic_loo ()
  in
  let cal_scan = with_index_threshold "1000000000" restore in
  let cal_ix = with_index_threshold "1" restore in
  (model, cal_scan, cal_ix, sample)

let index_reg_world ~rng ~n ~dim =
  let open Prom_ml in
  let sample = index_blob_sampler rng ~dim in
  let feats = Array.init n sample in
  let w = Array.init dim (fun _ -> Prom_linalg.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let model =
    { Model.predict = (fun x -> Prom_linalg.Vec.dot w x); name = "linear";
      reg_state = Model.No_state }
  in
  let n_clusters = 4 in
  let clusters =
    {
      Kmeans.centroids =
        Array.init n_clusters (fun c ->
            Array.init dim (fun j -> float_of_int (c + j)));
      assignments = Array.init n (fun i -> i mod n_clusters);
      inertia = 0.0;
    }
  in
  let rentries =
    Array.mapi
      (fun i f ->
        let pred = Prom_linalg.Vec.dot w f in
        { Calibration.rfeatures = f; target = pred +. 0.1; rpred = pred;
          cluster = i mod n_clusters; rproxy = pred; rspread = 0.5 })
      feats
  in
  let restore () =
    Calibration.restore_reg ~rentries ~rconfig:index_config ~clusters ~n_clusters
      ~rscaler:(index_identity_scaler ~dim) ~rtau:1.0
      ~rloo_distances:index_synthetic_loo ()
  in
  let cal_scan = with_index_threshold "1000000000" restore in
  let cal_ix = with_index_threshold "1" restore in
  (model, cal_scan, cal_ix, sample)

(* One scan-vs-index row: the verdict-parity gates (classification,
   and regression when [with_reg]), then interleaved timing. *)
let index_row ?(config = index_config) ?(sampler = index_blob_sampler) ~rng ~dim ~n
    ~n_queries ~quota ~with_reg () =
  let committee = Nonconformity.default_committee in
  let model, cal_scan, cal_ix, sample = index_cls_world ~config ~sampler ~rng ~n ~dim () in
  (match Calibration.index_of_cls cal_scan with
  | Some _ -> failwith "index bench: scan arm unexpectedly indexed"
  | None -> ());
  let idx =
    match Calibration.index_of_cls cal_ix with
    | Some i -> i
    | None -> failwith "index bench: index arm carries no index"
  in
  let t0 = Unix.gettimeofday () in
  ignore (Prom_linalg.Knn_index.build cal_ix.Calibration.feat_matrix);
  let build_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let det_scan =
    Detector.Classification.of_calibration ~config ~committee ~model ~feature_of:Fun.id
      cal_scan
  in
  let det_ix =
    Detector.Classification.of_calibration ~config ~committee ~model ~feature_of:Fun.id
      cal_ix
  in
  let queries = Array.init n_queries (fun i -> sample (5 * i)) in
  (* Bit-identity gate: verdicts must match the dense scan exactly,
     sequentially and batched, before anything is timed. *)
  let vs = Array.map (Detector.Classification.evaluate det_scan) queries in
  let vi = Array.map (Detector.Classification.evaluate det_ix) queries in
  if vs <> vi then failwith "index bench: indexed verdicts diverged from scan";
  let vb = Detector.Classification.evaluate_batch det_ix queries in
  if vb <> vs then failwith "index bench: indexed batch verdicts diverged";
  if with_reg then begin
    let rmodel, rcal_scan, rcal_ix, rsample = index_reg_world ~rng ~n ~dim in
    let rcommittee = Nonconformity.default_reg_committee in
    let rdet_scan =
      Detector.Regression.of_calibration ~config:index_config ~committee:rcommittee
        ~model:rmodel ~feature_of:Fun.id rcal_scan
    in
    let rdet_ix =
      Detector.Regression.of_calibration ~config:index_config ~committee:rcommittee
        ~model:rmodel ~feature_of:Fun.id rcal_ix
    in
    let rqueries = Array.init n_queries (fun i -> rsample (3 * i)) in
    let rs = Array.map (Detector.Regression.evaluate rdet_scan) rqueries in
    let ri = Array.map (Detector.Regression.evaluate rdet_ix) rqueries in
    if rs <> ri then failwith "index bench: regression indexed verdicts diverged from scan";
    let rb = Detector.Regression.evaluate_batch rdet_ix rqueries in
    if rb <> rs then failwith "index bench: regression indexed batch verdicts diverged";
    Printf.printf "  regression verdicts bit-identical at n=%d: true\n" n
  end;
  let before = Prom_linalg.Knn_index.stats idx in
  let qi = ref 0 in
  let pick () =
    let q = queries.(!qi) in
    qi := (!qi + 1) mod n_queries;
    q
  in
  let ns =
    ns_interleaved ~quota ~rounds:3
      [|
        ( Printf.sprintf "scan-%d" n,
          fun () -> ignore (Detector.Classification.evaluate det_scan (pick ())) );
        ( Printf.sprintf "index-%d" n,
          fun () -> ignore (Detector.Classification.evaluate det_ix (pick ())) );
      |]
  in
  let after = Prom_linalg.Knn_index.stats idx in
  let scan_ns = ns.(0) and index_ns = ns.(1) in
  let scanned = after.st_scanned - before.st_scanned in
  let pruned = after.st_rows_pruned - before.st_rows_pruned in
  let cpruned = after.st_clusters_pruned - before.st_clusters_pruned in
  let tq = after.st_queries - before.st_queries in
  let prune_frac =
    if scanned + pruned = 0 then 0.0 else float_of_int pruned /. float_of_int (scanned + pruned)
  in
  let clusters = Prom_linalg.Knn_index.clusters idx in
  let qps ns = 1e9 /. ns in
  Printf.printf
    "  n=%-7d d=%-3d scan %9.0f ns/q (%8.0f q/s) | index %9.0f ns/q (%8.0f q/s) | \
     %5.1fx | clusters %4d | rows pruned %5.1f%% | build %7.1f ms\n"
    n dim scan_ns (qps scan_ns) index_ns (qps index_ns) (scan_ns /. index_ns) clusters
    (100.0 *. prune_frac) build_ms;
  (n, scan_ns, index_ns, clusters, tq, scanned, pruned, cpruned, prune_frac, build_ms)

let index_row_json (n, scan_ns, index_ns, clusters, tq, scanned, pruned, cpruned, frac, build_ms) =
  Printf.sprintf
    "{\"n\": %d, \"scan_ns_per_query\": %.1f, \"index_ns_per_query\": %.1f,\n\
    \     \"scan_queries_per_sec\": %.1f, \"index_queries_per_sec\": %.1f,\n\
    \     \"speedup\": %.3f, \"clusters\": %d, \"build_ms\": %.2f,\n\
    \     \"prune\": {\"queries\": %d, \"rows_scanned\": %d, \"rows_pruned\": %d,\n\
    \               \"clusters_pruned\": %d, \"rows_pruned_frac\": %.4f}}"
    n scan_ns index_ns (1e9 /. scan_ns) (1e9 /. index_ns) (scan_ns /. index_ns) clusters
    build_ms tq scanned pruned cpruned frac

(* The machine a figure was measured on: cores, ISA, distance-kernel
   backend, OCaml version and, where a section runs on a domain pool,
   the pool's size. *)
let host_json ?pool_domains () =
  let isa =
    try
      let ic = Unix.open_process_in "uname -m" in
      let s = input_line ic in
      ignore (Unix.close_process_in ic);
      s
    with _ -> "unknown"
  in
  Prom_jsonx.Obj
    ([
       ("nproc", Prom_jsonx.Num (float_of_int (Domain.recommended_domain_count ())));
       ("isa", Prom_jsonx.Str isa);
       ("kernels_backend", Prom_jsonx.Str (Prom_linalg.Kernels.active_name ()));
       ("kernels_isa", Prom_jsonx.Str (Prom_linalg.Kernels.active_isa ()));
       ("ocaml", Prom_jsonx.Str Sys.ocaml_version);
     ]
    @
    match pool_domains with
    | Some d -> [ ("pool_domains", Prom_jsonx.Num (float_of_int d)) ]
    | None -> [])

let index_section ~sizes ~n_queries ~quota ~json_path () =
  section_header "Pruned kNN index: calibration query scaling";
  let rng = Prom_linalg.Rng.create (seed + 31) in
  let dim = 12 in
  let largest = sizes.(Array.length sizes - 1) in
  let rows =
    Array.map
      (fun n -> index_row ~rng ~dim ~n ~n_queries ~quota ~with_reg:(n = largest) ())
      sizes
  in
  (* A store whose clusters cannot prune, behind the same parity gate:
     the probe then costs a full scan plus the rerank. *)
  let overlap_dim = 16 in
  let overlap =
    index_row ~config:overlap_config ~sampler:overlap_blob_sampler ~rng ~dim:overlap_dim
      ~n:4096 ~n_queries ~quota ~with_reg:false ()
  in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n  \"host\": %s,\n  \"dim\": %d,\n  \"select_ratio\": %.3f,\n  \"batch_queries\": %d,\n\
    \  \"sizes\": [\n"
    (Prom_jsonx.to_string (host_json ())) dim index_config.Config.select_ratio n_queries;
  Array.iteri
    (fun i row ->
      Printf.fprintf oc "    %s%s\n" (index_row_json row)
        (if i = Array.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n  \"overlapping_blobs\": {\"dim\": %d, \"select_ratio\": %.3f,\n    \"row\": %s}\n}\n"
    overlap_dim overlap_config.Config.select_ratio (index_row_json overlap);
  close_out oc;
  Printf.printf "  wrote %s\n" json_path

let index_bench () =
  index_section ~sizes:[| 1_000; 10_000; 100_000 |] ~n_queries:64 ~quota:0.5
    ~json_path:"BENCH_index.json" ()

let index_smoke () =
  index_section ~sizes:[| 1_000; 4_000 |] ~n_queries:16 ~quota:0.05
    ~json_path:"BENCH_index_smoke.json" ()

(* Serving-layer benchmark: closed-loop load generation against the
   in-process HTTP server — throughput and latency percentiles at
   several keep-alive concurrency levels, a wire-identity check against
   the direct [Service.evaluate_batch] path, and the micro-batching
   speedup over a max_batch=1 server. The [serve-smoke] variant also
   drives a spawned `prom_cli serve` process end to end when the
   bench-smoke alias provides the binary path via PROM_CLI. *)

module Http = Prom_server.Http
module Server = Prom_server.Server
module Jx = Prom_jsonx

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(Stdlib.min (n - 1) (int_of_float ((p *. float_of_int (n - 1)) +. 0.5)))

let connect_loopback port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let query_body (features, proba) =
  let vec v = Jx.Arr (Array.to_list (Array.map (fun x -> Jx.Num x) v)) in
  Jx.to_string (Jx.Obj [ ("features", vec features); ("proba", vec proba) ])

(* One closed-loop level: [concurrency] keep-alive connections, each
   firing [requests] single-query POSTs back to back. Up to 64
   connections each level runs one client thread per connection; past
   that each thread multiplexes a block of connections (write the whole
   block, then collect the whole block of responses) so the generator
   itself is not serialized by hundreds of runnable systhreads fighting
   over one runtime lock — at c=512 a thread-per-connection client
   measures its own scheduler, not the server. *)
let run_level ~port ~bodies ~concurrency ~requests =
  let per_thread =
    if concurrency <= 64 then 1
    else if concurrency mod 32 = 0 then 32
    else 1
  in
  let nthreads = concurrency / per_thread in
  let nbodies = Array.length bodies in
  let failures = Atomic.make 0 in
  let lat = Array.make (concurrency * requests) 0.0 in
  let t0 = Unix.gettimeofday () in
  let threads =
    Array.init nthreads (fun c ->
        Thread.create
          (fun () ->
            try
              let fds = Array.init per_thread (fun _ -> connect_loopback port) in
              let readers = Array.map Http.reader fds in
              let sent = Array.make per_thread 0.0 in
              for k = 0 to requests - 1 do
                for j = 0 to per_thread - 1 do
                  let conn = (c * per_thread) + j in
                  let body = bodies.((conn + k) mod nbodies) in
                  sent.(j) <- Unix.gettimeofday ();
                  Http.write_request fds.(j) ~meth:"POST" ~path:"/predict" body
                done;
                for j = 0 to per_thread - 1 do
                  let conn = (c * per_thread) + j in
                  (match Http.read_response readers.(j) with
                  | Ok r when r.Http.status = 200 -> ()
                  | _ -> Atomic.incr failures);
                  lat.((conn * requests) + k) <- Unix.gettimeofday () -. sent.(j)
                done
              done;
              Array.iter Unix.close fds
            with _ -> Atomic.incr failures)
          ())
  in
  Array.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let sorted = Array.copy lat in
  Array.sort compare sorted;
  let total = concurrency * requests in
  (total, Atomic.get failures, wall, float_of_int total /. wall, sorted)

let scrape_metric text name =
  List.find_map
    (fun line ->
      let n = String.length name in
      if String.length line > n + 1 && String.sub line 0 n = name && line.[n] = ' '
      then float_of_string_opt (String.sub line (n + 1) (String.length line - n - 1))
      else None)
    (String.split_on_char '\n' text)

let http_get ~port path =
  let fd = connect_loopback port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Http.write_request fd ~meth:"GET" ~path "";
      match Http.read_response (Http.reader fd) with
      | Ok r -> r
      | Error _ -> failwith "serve bench: GET failed")

let serve_section ~n_cal ~levels ~requests ~json_path () =
  section_header
    (Printf.sprintf "HTTP serving: closed-loop load generator (n_cal=%d)" n_cal);
  let open Prom_ml in
  let model, calibration, _ = inference_world ~n_cal ~n_queries:1 in
  let triples =
    List.init (Dataset.length calibration) (fun i ->
        let x, y = Dataset.get calibration i in
        (x, y, model.Model.predict_proba x))
  in
  let service = Service.create triples in
  let rng = Prom_linalg.Rng.create (seed + 99) in
  let queries =
    Array.init 64 (fun i ->
        let x =
          Array.init 16 (fun j ->
              float_of_int ((i mod 4) * (1 + (j mod 3)))
              +. Prom_linalg.Rng.gaussian rng ~mu:0.0 ~sigma:1.5)
        in
        (x, model.Model.predict_proba x))
  in
  let bodies = Array.map query_body queries in
  let n_domains = Stdlib.max 2 (Prom_parallel.Pool.default_size ()) in
  let pool = Prom_parallel.Pool.create n_domains in
  Fun.protect
    ~finally:(fun () -> Prom_parallel.Pool.shutdown pool)
    (fun () ->
      let direct = Service.evaluate_batch ~pool service queries in
      (* Inference ceiling: what raw [evaluate_batch] sustains on this
         machine with no HTTP in the way. The closed-loop levels below
         share the same cores with the load generator, so this bounds
         every throughput number in the file. *)
      let ceiling_qps =
        let iters = 8 in
        let t_inf = Unix.gettimeofday () in
        for _ = 1 to iters do
          ignore (Service.evaluate_batch ~pool service queries)
        done;
        float_of_int (iters * Array.length queries)
        /. (Unix.gettimeofday () -. t_inf)
      in
      Printf.printf "  inference ceiling (batch=%d, no HTTP): %.0f q/s\n"
        (Array.length queries) ceiling_qps;
      let top = List.fold_left Stdlib.max 1 levels in
      (* Headroom above the highest closed-loop level so admission
         control never 503s the load generator itself. *)
      let config =
        {
          Server.default_config with
          Server.max_connections =
            Stdlib.max Server.default_config.Server.max_connections (2 * top);
        }
      in
      let server = Server.start ~config ~pool service in
      let port = Server.port server in
      (* Wire identity: every served verdict must bit-match the direct
         evaluate_batch path, JSON round trip included. *)
      let fd = connect_loopback port in
      let reader = Http.reader fd in
      Array.iteri
        (fun i body ->
          Http.write_request fd ~meth:"POST" ~path:"/predict" body;
          match Http.read_response reader with
          | Ok r when r.Http.status = 200 -> (
              match Jx.parse r.Http.resp_body with
              | Ok v ->
                  let cred = Option.bind (Jx.member "credibility" v) Jx.to_float in
                  let conf = Option.bind (Jx.member "confidence" v) Jx.to_float in
                  if
                    cred <> Some direct.(i).Detector.mean_credibility
                    || conf <> Some direct.(i).Detector.mean_confidence
                  then failwith "serve bench: served verdict diverged from direct path"
              | Error e -> failwith ("serve bench: bad response JSON: " ^ e))
          | _ -> failwith "serve bench: identity check request failed")
        bodies;
      Unix.close fd;
      Printf.printf
        "  served = direct evaluate_batch (bit-identical): true (%d queries)\n"
        (Array.length queries);
      let level_rows =
        List.map
          (fun concurrency ->
            let total, failures, wall, rps, sorted =
              run_level ~port ~bodies ~concurrency ~requests
            in
            if failures > 0 then
              failwith
                (Printf.sprintf "serve bench: %d failures at concurrency %d"
                   failures concurrency);
            let ms p = percentile sorted p *. 1000.0 in
            Printf.printf
              "  c=%-3d  %6d reqs  %8.0f req/s   p50 %7.3f ms  p90 %7.3f ms  \
               p99 %7.3f ms  (0 failures)\n"
              concurrency total rps (ms 0.5) (ms 0.9) (ms 0.99);
            (concurrency, total, wall, rps, ms 0.5, ms 0.9, ms 0.99))
          levels
      in
      let metrics_text = (http_get ~port "/metrics").Http.resp_body in
      (match Prom_obs.validate_exposition metrics_text with
      | Ok () -> ()
      | Error e -> failwith ("serve bench: invalid /metrics exposition: " ^ e));
      let mean_batch =
        match
          ( scrape_metric metrics_text "prom_http_batch_size_sum",
            scrape_metric metrics_text "prom_http_batch_size_count" )
        with
        | Some s, Some c when c > 0.0 -> s /. c
        | _ -> 0.0
      in
      Printf.printf "  mean dispatched batch size: %.2f\n" mean_batch;
      (* The c=1 median against the ceiling's per-query cost: the gap
         is what one request pays on top of pure evaluation. *)
      let c1_p50_ms =
        List.find_map
          (fun (c, _, _, _, p50, _, _) -> if c = 1 then Some p50 else None)
          level_rows
      in
      Option.iter
        (fun p50 ->
          Printf.printf
            "  c=1 p50 %.3f ms vs %.3f ms/query at the inference ceiling\n" p50
            (1000.0 /. ceiling_qps))
        c1_p50_ms;
      Server.stop server;
      (* Micro-batching vs a max_batch=1 server at the highest level. *)
      let unbatched_config =
        { config with Server.max_batch = 1 }
      in
      let server1 = Server.start ~config:unbatched_config ~pool service in
      let _, failures1, _, rps1, _ =
        run_level ~port:(Server.port server1) ~bodies ~concurrency:top ~requests
      in
      Server.stop server1;
      if failures1 > 0 then failwith "serve bench: failures on unbatched server";
      let batched_rps =
        List.fold_left
          (fun acc (c, _, _, rps, _, _, _) -> if c = top then rps else acc)
          0.0 level_rows
      in
      Printf.printf
        "  batching vs max_batch=1 at c=%d: %.0f vs %.0f req/s (%.2fx)\n"
        top batched_rps rps1
        (if rps1 > 0.0 then batched_rps /. rps1 else 0.0);
      let row_json (c, total, wall, rps, p50, p90, p99) =
        Jx.Obj
          [
            ("concurrency", Jx.Num (float_of_int c));
            ("requests", Jx.Num (float_of_int total));
            ("failures", Jx.Num 0.0);
            ("wall_s", Jx.Num wall);
            ("throughput_rps", Jx.Num rps);
            ( "latency_ms",
              Jx.Obj
                [ ("p50", Jx.Num p50); ("p90", Jx.Num p90); ("p99", Jx.Num p99) ]
            );
          ]
      in
      let doc =
        Jx.Obj
          [
            ("host", host_json ~pool_domains:n_domains ());
            ("calibration_entries", Jx.Num (float_of_int n_cal));
            ("requests_per_connection", Jx.Num (float_of_int requests));
            ("inference_ceiling_qps", Jx.Num ceiling_qps);
            ( "c1_p50_ms",
              match c1_p50_ms with Some p -> Jx.Num p | None -> Jx.Null );
            ("mean_batch_size", Jx.Num mean_batch);
            ("levels", Jx.Arr (List.map row_json level_rows));
            ( "unbatched_comparison",
              Jx.Obj
                [
                  ("concurrency", Jx.Num (float_of_int top));
                  ("batched_rps", Jx.Num batched_rps);
                  ("unbatched_rps", Jx.Num rps1);
                  ( "speedup",
                    Jx.Num (if rps1 > 0.0 then batched_rps /. rps1 else 0.0) );
                ] );
          ]
      in
      let oc = open_out json_path in
      output_string oc (Jx.to_string doc ^ "\n");
      close_out oc;
      Printf.printf "  wrote %s\n" json_path)

(* Lifecycle smoke of the spawned CLI server: start `prom_cli serve
   --listen 0`, scrape the announced port, hit every endpoint, hot-swap,
   then SIGTERM and require a clean (drained) exit 0. *)
let serve_lifecycle_smoke () =
  section_header "Serve lifecycle: spawned prom_cli serve";
  match Sys.getenv_opt "PROM_CLI" with
  | None -> Printf.printf "  skipped (PROM_CLI not set)\n"
  | Some cli ->
      let dir = Filename.temp_dir "prom-bench-serve-cli" "" in
      let r_out, w_out = Unix.pipe () in
      let pid =
        Unix.create_process cli
          [| cli; "serve"; "--quick"; "--listen"; "0"; "--snapshot-dir"; dir |]
          Unix.stdin w_out Unix.stderr
      in
      Unix.close w_out;
      let ic = Unix.in_channel_of_descr r_out in
      let port =
        let prefix = "listening on http://127.0.0.1:" in
        let plen = String.length prefix in
        let rec scan () =
          let line = input_line ic in
          if String.length line > plen && String.sub line 0 plen = prefix then
            int_of_string (String.sub line plen (String.length line - plen))
          else scan ()
        in
        try scan ()
        with End_of_file -> failwith "serve lifecycle: server never announced a port"
      in
      let fd = connect_loopback port in
      let reader = Http.reader fd in
      let req meth path body =
        Http.write_request fd ~meth ~path body;
        match Http.read_response reader with
        | Ok r -> r
        | Error _ -> failwith "serve lifecycle: unreadable response"
      in
      let expect name status (r : Http.response) =
        if r.Http.status <> status then
          failwith
            (Printf.sprintf "serve lifecycle: %s answered %d, wanted %d" name
               r.Http.status status)
      in
      let h = req "GET" "/healthz" "" in
      expect "healthz" 200 h;
      let dim, n_classes =
        match Jx.parse h.Http.resp_body with
        | Ok v -> (
            let geti name =
              match Option.bind (Jx.member name v) Jx.to_float with
              | Some f -> int_of_float f
              | None -> failwith "serve lifecycle: healthz missing engine dims"
            in
            (geti "feature_dim", geti "n_classes"))
        | Error e -> failwith ("serve lifecycle: healthz body: " ^ e)
      in
      let body =
        query_body
          (Array.make dim 0.5, Array.make n_classes (1.0 /. float_of_int n_classes))
      in
      expect "predict" 200 (req "POST" "/predict" body);
      let m = req "GET" "/metrics" "" in
      expect "metrics" 200 m;
      (match Prom_obs.validate_exposition m.Http.resp_body with
      | Ok () -> ()
      | Error e -> failwith ("serve lifecycle: invalid exposition: " ^ e));
      expect "swap" 200 (req "POST" "/admin/swap" "");
      Unix.close fd;
      Unix.kill pid Sys.sigterm;
      (match
         Prom_store.Iox.retry (fun () -> Unix.waitpid [] pid)
       with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "serve lifecycle: prom_cli serve did not exit 0");
      close_in ic;
      Printf.printf "  spawn -> healthz/predict/metrics/swap -> SIGTERM -> exit 0: ok\n"

let serve_bench () =
  serve_section ~n_cal:600 ~levels:[ 1; 8; 64; 512 ] ~requests:100
    ~json_path:"BENCH_serve.json" ()

let serve_bench_smoke () =
  serve_section ~n_cal:120 ~levels:[ 1; 4; 128 ] ~requests:10
    ~json_path:"BENCH_serve_smoke.json" ();
  serve_lifecycle_smoke ()

(* Multi-tenant serving benchmark: two tenants with independent
   deployments behind one server, a per-tenant wire-identity check,
   solo per-tenant baselines, then a mixed 80/20-skewed closed loop —
   and the starvation gate: deficit-round-robin batching must keep the
   cold tenant's p99 within 3x its solo p99 while the hot tenant keeps
   the shared queue saturated. *)

(* [plan.(c)] is connection [c]'s (path, bodies): tenant routing is per
   connection, so per-tenant latencies partition by plan row. *)
let run_tenant_level ~port ~plan ~requests =
  let n = Array.length plan in
  let failures = Atomic.make 0 in
  let lat = Array.make_matrix n requests 0.0 in
  let threads =
    Array.init n (fun c ->
        Thread.create
          (fun () ->
            try
              let path, bodies = plan.(c) in
              let nb = Array.length bodies in
              let fd = connect_loopback port in
              let reader = Http.reader fd in
              for k = 0 to requests - 1 do
                let t0 = Unix.gettimeofday () in
                Http.write_request fd ~meth:"POST" ~path bodies.((c + k) mod nb);
                (match Http.read_response reader with
                | Ok r when r.Http.status = 200 -> ()
                | _ -> Atomic.incr failures);
                lat.(c).(k) <- Unix.gettimeofday () -. t0
              done;
              Unix.close fd
            with _ -> Atomic.incr failures)
          ())
  in
  Array.iter Thread.join threads;
  (Atomic.get failures, lat)

let tenant_percentile_ms rows p =
  let all = Array.concat (Array.to_list rows) in
  Array.sort compare all;
  percentile all p *. 1000.0

let tenants_section ~n_cal ~hot_conns ~cold_conns ~requests ~json_path () =
  section_header
    (Printf.sprintf "Multi-tenant serving: %d/%d skewed closed loop (n_cal=%d)"
       hot_conns cold_conns n_cal);
  let open Prom_ml in
  let model, calibration, _ = inference_world ~n_cal ~n_queries:1 in
  let triples len =
    List.init len (fun i ->
        let x, y = Dataset.get calibration i in
        (x, y, model.Model.predict_proba x))
  in
  let n = Dataset.length calibration in
  (* Deliberately different calibration stores, so the tenants'
     committees (and verdicts) differ and the per-tenant wire-identity
     check below is meaningful. *)
  let svc_hot = Service.create (triples n) in
  let svc_cold = Service.create (triples (Stdlib.max 16 (n / 2))) in
  let rng = Prom_linalg.Rng.create (seed + 41) in
  let queries =
    Array.init 64 (fun i ->
        let x =
          Array.init 16 (fun j ->
              float_of_int ((i mod 4) * (1 + (j mod 3)))
              +. Prom_linalg.Rng.gaussian rng ~mu:0.0 ~sigma:1.5)
        in
        (x, model.Model.predict_proba x))
  in
  let bodies = Array.map query_body queries in
  let pool =
    Prom_parallel.Pool.create (Stdlib.max 2 (Prom_parallel.Pool.default_size ()))
  in
  Fun.protect
    ~finally:(fun () -> Prom_parallel.Pool.shutdown pool)
    (fun () ->
      let tenants = Tenant.create () in
      ignore (Tenant.register ~service:svc_hot tenants "hot");
      ignore (Tenant.register ~service:svc_cold tenants "cold");
      let conns = hot_conns + cold_conns in
      let config =
        {
          Server.default_config with
          Server.max_connections =
            Stdlib.max Server.default_config.Server.max_connections (2 * conns);
        }
      in
      let server = Server.start ~config ~pool ~tenants svc_hot in
      let port = Server.port server in
      (* Per-tenant wire identity: what /t/<name>/predict serves must
         bit-match that tenant's own direct evaluate_batch. *)
      List.iter
        (fun (tname, svc) ->
          let direct = Service.evaluate_batch ~pool svc queries in
          let fd = connect_loopback port in
          let reader = Http.reader fd in
          Array.iteri
            (fun i body ->
              Http.write_request fd ~meth:"POST"
                ~path:("/t/" ^ tname ^ "/predict")
                body;
              match Http.read_response reader with
              | Ok r when r.Http.status = 200 -> (
                  match Jx.parse r.Http.resp_body with
                  | Ok v ->
                      let cred =
                        Option.bind (Jx.member "credibility" v) Jx.to_float
                      in
                      let conf =
                        Option.bind (Jx.member "confidence" v) Jx.to_float
                      in
                      if
                        cred <> Some direct.(i).Detector.mean_credibility
                        || conf <> Some direct.(i).Detector.mean_confidence
                      then
                        failwith
                          (Printf.sprintf
                             "tenants bench: tenant %s diverged from its direct \
                              path"
                             tname)
                  | Error e -> failwith ("tenants bench: bad response JSON: " ^ e))
              | _ -> failwith "tenants bench: identity request failed")
            bodies;
          Unix.close fd)
        [ ("hot", svc_hot); ("cold", svc_cold) ];
      Printf.printf
        "  per-tenant served = direct evaluate_batch (bit-identical): true (%d \
         queries x 2 tenants)\n"
        (Array.length queries);
      (* Solo baselines: each tenant alone on the shared server, at the
         connection count it will hold in the mixed phase. *)
      let solo tname nconns =
        let plan = Array.make nconns ("/t/" ^ tname ^ "/predict", bodies) in
        let failures, lat = run_tenant_level ~port ~plan ~requests in
        if failures > 0 then failwith "tenants bench: failures in solo phase";
        tenant_percentile_ms lat 0.99
      in
      let hot_solo_p99 = solo "hot" hot_conns in
      let cold_solo_p99 = solo "cold" cold_conns in
      (* Mixed phase: the 80/20 skew, one shared server and batcher. *)
      let plan =
        Array.init conns (fun c ->
            if c < hot_conns then ("/t/hot/predict", bodies)
            else ("/t/cold/predict", bodies))
      in
      let t0 = Unix.gettimeofday () in
      let failures, lat = run_tenant_level ~port ~plan ~requests in
      let wall = Unix.gettimeofday () -. t0 in
      if failures > 0 then failwith "tenants bench: failures in mixed phase";
      let hot_rows = Array.sub lat 0 hot_conns in
      let cold_rows = Array.sub lat hot_conns cold_conns in
      let hot_p50 = tenant_percentile_ms hot_rows 0.5 in
      let hot_p99 = tenant_percentile_ms hot_rows 0.99 in
      let cold_p50 = tenant_percentile_ms cold_rows 0.5 in
      let cold_p99 = tenant_percentile_ms cold_rows 0.99 in
      let metrics_text = (http_get ~port "/metrics").Http.resp_body in
      (match Prom_obs.validate_exposition metrics_text with
      | Ok () -> ()
      | Error e -> failwith ("tenants bench: invalid /metrics exposition: " ^ e));
      let share tname =
        Option.value ~default:0.0
          (scrape_metric metrics_text
             (Printf.sprintf "prom_tenant_batch_share{tenant=%S}" tname))
      in
      let hot_share = share "hot" and cold_share = share "cold" in
      Server.stop server;
      let rps = float_of_int (conns * requests) /. wall in
      Printf.printf
        "  mixed %d/%d: %7.0f req/s   hot p50 %7.3f p99 %7.3f ms   cold p50 \
         %7.3f p99 %7.3f ms\n"
        hot_conns cold_conns rps hot_p50 hot_p99 cold_p50 cold_p99;
      Printf.printf "  batch share: hot %.0f queries, cold %.0f queries\n"
        hot_share cold_share;
      (* Starvation gate: fair-share batching must keep the cold
         tenant's p99 within 3x its solo p99; the 5 ms additive
         allowance absorbs scheduler jitter at smoke scale without
         masking real starvation (which shows up as 10-100x). *)
      let limit = (3.0 *. cold_solo_p99) +. 5.0 in
      let pass = cold_p99 <= limit in
      Printf.printf
        "  starvation gate: cold mixed p99 %.3f ms <= 3 x solo p99 %.3f ms + 5 \
         ms: %s\n"
        cold_p99 cold_solo_p99
        (if pass then "pass" else "FAIL");
      let tenant_json name nconns solo_p99 p50 p99 share_q =
        Jx.Obj
          [
            ("tenant", Jx.Str name);
            ("connections", Jx.Num (float_of_int nconns));
            ("solo_p99_ms", Jx.Num solo_p99);
            ("mixed_p50_ms", Jx.Num p50);
            ("mixed_p99_ms", Jx.Num p99);
            ("batch_share_queries", Jx.Num share_q);
          ]
      in
      let doc =
        Jx.Obj
          [
            ("calibration_entries", Jx.Num (float_of_int n_cal));
            ("requests_per_connection", Jx.Num (float_of_int requests));
            ("throughput_rps", Jx.Num rps);
            ( "tenants",
              Jx.Arr
                [
                  tenant_json "hot" hot_conns hot_solo_p99 hot_p50 hot_p99
                    hot_share;
                  tenant_json "cold" cold_conns cold_solo_p99 cold_p50 cold_p99
                    cold_share;
                ] );
            ( "starvation_gate",
              Jx.Obj
                [
                  ("cold_mixed_p99_ms", Jx.Num cold_p99);
                  ("cold_solo_p99_ms", Jx.Num cold_solo_p99);
                  ("limit_ms", Jx.Num limit);
                  ("pass", Jx.Bool pass);
                ] );
          ]
      in
      let oc = open_out json_path in
      output_string oc (Jx.to_string doc ^ "\n");
      close_out oc;
      Printf.printf "  wrote %s\n" json_path;
      if not pass then failwith "tenants bench: starvation gate failed")

(* Lifecycle smoke of the spawned multi-tenant CLI server: a serving
   root with two tenant subdirectories, `prom_cli serve --tenants`,
   predictions on both tenants, a hot-swap of one, a traversal 404,
   then SIGTERM and a clean drained exit 0. *)
let tenants_lifecycle_smoke () =
  section_header "Tenants lifecycle: spawned prom_cli serve --tenants";
  match Sys.getenv_opt "PROM_CLI" with
  | None -> Printf.printf "  skipped (PROM_CLI not set)\n"
  | Some cli ->
      let root = Filename.temp_dir "prom-bench-tenants-cli" "" in
      Unix.mkdir (Filename.concat root "a") 0o755;
      Unix.mkdir (Filename.concat root "b") 0o755;
      let r_out, w_out = Unix.pipe () in
      let pid =
        Unix.create_process cli
          [| cli; "serve"; "--quick"; "--listen"; "0"; "--tenants"; root |]
          Unix.stdin w_out Unix.stderr
      in
      Unix.close w_out;
      let ic = Unix.in_channel_of_descr r_out in
      let port =
        let prefix = "listening on http://127.0.0.1:" in
        let plen = String.length prefix in
        let rec scan () =
          let line = input_line ic in
          if String.length line > plen && String.sub line 0 plen = prefix then
            int_of_string (String.sub line plen (String.length line - plen))
          else scan ()
        in
        try scan ()
        with End_of_file ->
          failwith "tenants lifecycle: server never announced a port"
      in
      let fd = connect_loopback port in
      let reader = Http.reader fd in
      let req meth path body =
        Http.write_request fd ~meth ~path body;
        match Http.read_response reader with
        | Ok r -> r
        | Error _ -> failwith "tenants lifecycle: unreadable response"
      in
      let expect name status (r : Http.response) =
        if r.Http.status <> status then
          failwith
            (Printf.sprintf "tenants lifecycle: %s answered %d, wanted %d" name
               r.Http.status status)
      in
      let h = req "GET" "/healthz" "" in
      expect "healthz" 200 h;
      let dim, n_classes =
        match Jx.parse h.Http.resp_body with
        | Ok v -> (
            let geti name =
              match Option.bind (Jx.member name v) Jx.to_float with
              | Some f -> int_of_float f
              | None -> failwith "tenants lifecycle: healthz missing engine dims"
            in
            (geti "feature_dim", geti "n_classes"))
        | Error e -> failwith ("tenants lifecycle: healthz body: " ^ e)
      in
      let body =
        query_body
          (Array.make dim 0.5, Array.make n_classes (1.0 /. float_of_int n_classes))
      in
      expect "predict /t/a" 200 (req "POST" "/t/a/predict" body);
      expect "predict /t/b" 200 (req "POST" "/t/b/predict" body);
      expect "swap /t/a" 200 (req "POST" "/t/a/admin/swap" "");
      expect "tenant healthz" 200 (req "GET" "/t/b/healthz" "");
      expect "traversal 404" 404 (req "POST" "/t/a.b/predict" body);
      Unix.close fd;
      Unix.kill pid Sys.sigterm;
      (match Prom_store.Iox.retry (fun () -> Unix.waitpid [] pid) with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "tenants lifecycle: prom_cli serve did not exit 0");
      close_in ic;
      Printf.printf
        "  spawn -> /t/{a,b}/predict -> swap a -> SIGTERM -> exit 0: ok\n"

let tenants_bench () =
  tenants_section ~n_cal:600 ~hot_conns:16 ~cold_conns:4 ~requests:100
    ~json_path:"BENCH_tenants.json" ()

let tenants_bench_smoke () =
  tenants_section ~n_cal:120 ~hot_conns:8 ~cold_conns:2 ~requests:25
    ~json_path:"BENCH_tenants_smoke.json" ();
  tenants_lifecycle_smoke ()

(* The paper's motivating study (Fig. 1a): a binary vulnerability
   detector trained on 2012-2014 samples, evaluated on successive future
   time windows. Half of each window's programs carry an injected bug. *)
let fig1 () =
  section_header "Figure 1a: data drift degrades a vulnerability detector over time";
  let open Prom_ml in
  let open Prom_synth in
  let open Prom_nn in
  let spec = Prom_tasks.Encoders.seq_spec ~max_len:64 ~extra:0 in
  let rng = Prom_linalg.Rng.create seed in
  let sample era =
    let style = Generator.style_of_era rng era in
    let base = Generator.generate rng style in
    if Prom_linalg.Rng.bool rng then
      let cwe = Prom_linalg.Rng.choice rng (Array.of_list Bug_inject.all) in
      (Prom_tasks.Encoders.pack_program spec ~prefix:[] (Bug_inject.inject rng ~era cwe base), 1)
    else
      (* Benign samples carry decoy helpers using the same APIs, so the
         detector must recognize patterns rather than vocabulary. *)
      let n = 1 + Prom_linalg.Rng.int rng 2 in
      ( Prom_tasks.Encoders.pack_program spec ~prefix:[]
          (Bug_inject.add_decoys rng ~era ~count:n base),
        0 )
  in
  let window eras n =
    let samples = Array.init n (fun i -> sample (List.nth eras (i mod List.length eras))) in
    Dataset.create (Array.map fst samples) (Array.map snd samples)
  in
  let train = window [ 2012; 2013; 2014 ] 360 in
  let params =
    { (Seq_model.default_params spec) with Seq_model.arch = Attention; epochs = 25;
      hidden = 16; learning_rate = 0.005 }
  in
  let model = Seq_model.train ~params train in
  let f1_on d =
    let tp = ref 0 and fp = ref 0 and fn = ref 0 in
    Array.iteri
      (fun i x ->
        match (Model.predict model x, d.Dataset.y.(i)) with
        | 1, 1 -> incr tp
        | 1, 0 -> incr fp
        | 0, 1 -> incr fn
        | _ -> ())
      d.Dataset.x;
    let p = float_of_int !tp /. float_of_int (Stdlib.max 1 (!tp + !fp)) in
    let r = float_of_int !tp /. float_of_int (Stdlib.max 1 (!tp + !fn)) in
    if p +. r = 0.0 then 0.0 else 2.0 *. p *. r /. (p +. r)
  in
  List.iter
    (fun (label, eras) ->
      Printf.printf "  %-12s F1 = %.3f
" label (f1_on (window eras 120)))
    [
      ("2012-2014", [ 2012; 2013; 2014 ]);
      ("2015-2016", [ 2015; 2016 ]);
      ("2017-2018", [ 2017; 2018 ]);
      ("2019-2020", [ 2019; 2020 ]);
      ("2021-2023", [ 2021; 2022; 2023 ]);
    ];
  Printf.printf "  (paper: F1 > 0.8 in-window, < 0.3 on future windows)\n"

(* Ablation of the design choices DESIGN.md calls out, on the C2/MLP
   setup: each variant removes one component of the detector. *)
let ablation () =
  section_header "Ablation: PROM components on C2 (MLP)";
  let model, calibration, drift_x, mispredicted = sensitivity_setup () in
  let run label config committee =
    let det =
      Detector.Classification.create ~config ~committee ~model ~feature_of:Fun.id
        calibration
    in
    let m = metrics_for det drift_x mispredicted in
    Format.printf "  %-34s %a@." label Detection_metrics.pp m
  in
  let default_committee = Nonconformity.default_committee in
  run "full detector (default)" Config.default default_committee;
  run "no distance test, credibility only"
    { Config.default with Config.decision_rule = Config.Credibility_only }
    default_committee;
  run "no adaptive weighting (w = 1)"
    { Config.default with Config.temperature = 1e12 }
    default_committee;
  run "full calibration set (no subset)"
    { Config.default with Config.select_ratio = 1.0; select_all_below = max_int }
    default_committee;
  run "strict majority voting"
    { Config.default with Config.vote_fraction = 0.5 }
    default_committee;
  run "single expert (LAC)" Config.default [ Nonconformity.lac ];
  run "extended committee (+Margin,+Entropy)" Config.default
    Nonconformity.extended_committee

(* Native distance-kernel backends: bit-identity gate plus per-kernel
   latency and effective bandwidth for the OCaml reference, the
   portable C build and the SIMD build. The gate runs first — on
   matrices covering every unroll remainder plus NaN/inf values — and
   fails the whole bench run on any diverging bit, since the 4-lane
   accumulation-order contract promises exact equality. *)
let kernels_section ~shapes ~quota ~json_path () =
  let module K = Prom_linalg.Kernels in
  section_header
    (Printf.sprintf "Distance kernels: backend parity and throughput (%s)"
       (String.concat ", "
          (List.map (fun (n, dim) -> Printf.sprintf "n=%d dim=%d" n dim) shapes)));
  let backends = List.filter K.available [ K.Ocaml; K.C; K.Simd ] in
  (* Any NaN matches any NaN: with two NaN add operands (a NaN element
     and an inf-inf difference in one lane) the surviving payload
     depends on operand order the C compiler may commute; everything
     non-NaN must match bit for bit. *)
  let bit_eq x y =
    Int64.bits_of_float x = Int64.bits_of_float y || (x <> x && y <> y)
  in
  let rng = Prom_linalg.Rng.create (seed + 29) in
  List.iter
    (fun (pn, pdim) ->
      let specials = [| nan; infinity; neg_infinity; 0.0; -0.0; 1e300 |] in
      let value i =
        if i mod 17 = 0 then specials.(i mod Array.length specials)
        else Prom_linalg.Rng.uniform rng ~lo:(-10.0) ~hi:10.0
      in
      let data = Array.init (pn * pdim) value in
      let q = Array.init pdim (fun i -> value (i + 1)) in
      let want = Array.make pn nan in
      K.sq_dists_range_with K.Ocaml ~data ~dim:pdim ~r0:0 ~r1:pn ~q ~oq:0 ~out:want
        ~off:0;
      List.iter
        (fun b ->
          let out = Array.make pn nan in
          K.sq_dists_range_with b ~data ~dim:pdim ~r0:0 ~r1:pn ~q ~oq:0 ~out ~off:0;
          for i = 0 to pn - 1 do
            if not (bit_eq out.(i) want.(i)) then
              failwith
                (Printf.sprintf
                   "kernels bench: %s range kernel diverged from the OCaml reference"
                   (K.backend_name b));
            let p = K.sq_dist_segs_with b data (i * pdim) q 0 pdim in
            if not (bit_eq p want.(i)) then
              failwith
                (Printf.sprintf
                   "kernels bench: %s pair kernel diverged from the OCaml reference"
                   (K.backend_name b))
          done)
        backends)
    [ (64, 16); (37, 13); (21, 7); (9, 3); (5, 1) ];
  Printf.printf "  backend parity (%s): ok (NaN/inf and all dim mod 4 covered)\n"
    (String.concat " vs " (List.map K.backend_name backends));
  let measure_shape (n, dim) =
    let data =
      Array.init (n * dim) (fun _ -> Prom_linalg.Rng.gaussian rng ~mu:0.0 ~sigma:1.0)
    in
    let q = Array.init dim (fun _ -> Prom_linalg.Rng.gaussian rng ~mu:0.0 ~sigma:1.0) in
    let out = Array.make n 0.0 in
    let sink = ref 0.0 in
    let tests =
      Array.of_list
        (List.concat_map
           (fun b ->
             [
               ( "range-" ^ K.backend_name b,
                 fun () ->
                   K.sq_dists_range_with b ~data ~dim ~r0:0 ~r1:n ~q ~oq:0 ~out ~off:0
               );
               ( "pair-" ^ K.backend_name b,
                 fun () ->
                   let acc = ref 0.0 in
                   for i = 0 to n - 1 do
                     acc := !acc +. K.sq_dist_segs_with b data (i * dim) q 0 dim
                   done;
                   sink := !acc );
             ])
           backends)
    in
    let ns = ns_interleaved ~quota ~rounds:3 tests in
    (* One full scan reads the n*dim row floats (the query stays in
       registers): bytes per nanosecond is numerically GB/s. *)
    let scan_bytes = float_of_int (n * dim * 8) in
    Printf.printf "  -- n=%d dim=%d (matrix %d KB) --\n" n dim (n * dim * 8 / 1024);
    let stats =
      List.mapi
        (fun i b ->
          let range_ns = ns.(2 * i) and pair_ns = ns.((2 * i) + 1) in
          let per_row = range_ns /. float_of_int n in
          let gbps = scan_bytes /. range_ns in
          Printf.printf
            "  %-5s (%s)  range %8.0f ns/scan  %6.2f ns/row  %6.2f GB/s | pair loop \
             %8.0f ns\n"
            (K.backend_name b) (K.isa_name b) range_ns per_row gbps pair_ns;
          (b, range_ns, pair_ns, per_row, gbps))
        backends
    in
    let range_of bk =
      List.find_map (fun (b, r, _, _, _) -> if b = bk then Some r else None) stats
    in
    let speedup =
      match (range_of K.Ocaml, range_of K.Simd) with
      | Some o, Some s ->
          Printf.printf "  simd speedup vs ocaml: %.2fx\n" (o /. s);
          o /. s
      | _ -> nan
    in
    ((n, dim), stats, speedup)
  in
  let shape_stats = List.map measure_shape shapes in
  let oc = open_out json_path in
  Printf.fprintf oc "{\n  \"active_backend\": %S,\n  \"active_isa\": %S,\n"
    (K.active_name ()) (K.active_isa ());
  Printf.fprintf oc "  \"shapes\": [\n";
  List.iteri
    (fun si ((n, dim), stats, speedup) ->
      Printf.fprintf oc "    {\"n_rows\": %d, \"dim\": %d, \"backends\": {\n" n dim;
      List.iteri
        (fun i (b, range_ns, pair_ns, per_row, gbps) ->
          Printf.fprintf oc
            "      %S: {\"isa\": %S, \"range_scan_ns\": %.1f, \"range_ns_per_row\": \
             %.3f, \"range_gb_per_s\": %.3f, \"pair_loop_ns\": %.1f}%s\n"
            (K.backend_name b) (K.isa_name b) range_ns per_row gbps pair_ns
            (if i = List.length stats - 1 then "" else ","))
        stats;
      Printf.fprintf oc "    }, \"simd_speedup_vs_ocaml\": %.3f}%s\n" speedup
        (if si = List.length shape_stats - 1 then "" else ","))
    shape_stats;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "  wrote %s\n" json_path

let kernels_bench () =
  kernels_section
    ~shapes:[ (4096, 16); (1024, 64); (256, 256) ]
    ~quota:0.5 ~json_path:"BENCH_kernels.json" ()

let kernels_smoke () =
  kernels_section ~shapes:[ (512, 16) ] ~quota:0.05
    ~json_path:"BENCH_kernels_smoke.json" ()

(* Streaming weighted recalibration (Stream): the unit-weight parity
   gate, then the ingestion loop — admit / decay / evict / rebuild /
   swap — running against live serving traffic from a second thread.
   The gate fails the run on any diverging verdict bit; the live phase
   fails it on any failed request, since [Service.swap] promises that
   publishes never block or break serving. *)
let stream_section ~n_cal ~admissions ~capacity ~json_path () =
  section_header
    (Printf.sprintf "Streaming calibration: ingestion loop under live traffic (n_cal=%d)"
       n_cal);
  let open Prom_ml in
  let model, calibration, queries = inference_world ~n_cal ~n_queries:32 in
  let triples =
    List.init n_cal (fun i ->
        let x = calibration.Dataset.x.(i) in
        (x, calibration.Dataset.y.(i), model.Model.predict_proba x))
  in
  let traffic = Array.map (fun x -> (x, model.Model.predict_proba x)) queries in
  (* --- Parity gate: explicit all-ones weights must not move a bit. ---
     The same store with a unit weight vector folded in exercises the
     weighted rank sums, suffix tables and gather-free scaling; the
     contract is that they reproduce the unweighted arithmetic exactly,
     so every p-value must match bit for bit. *)
  let plain = Service.create triples in
  let weighted =
    match Service.snapshot plain with
    | Snapshot.Cls s ->
        let cal = s.Snapshot.cls_calibration in
        let ones = Array.make (Array.length cal.Calibration.entries) 1.0 in
        Service.of_snapshot
          (Snapshot.Cls
             { s with Snapshot.cls_calibration = Calibration.reweight_cls cal ones })
    | Snapshot.Reg _ -> assert false
  in
  let vp = Service.evaluate_batch plain traffic in
  let vw = Service.evaluate_batch weighted traffic in
  let bit_eq x y = Int64.bits_of_float x = Int64.bits_of_float y in
  Array.iteri
    (fun i (a : Detector.cls_verdict) ->
      let b = vw.(i) in
      let ok =
        a.Detector.drifted = b.Detector.drifted
        && bit_eq a.Detector.mean_credibility b.Detector.mean_credibility
        && bit_eq a.Detector.mean_confidence b.Detector.mean_confidence
        && List.for_all2
             (fun (ea : Scores.expert_verdict) (eb : Scores.expert_verdict) ->
               bit_eq ea.Scores.credibility eb.Scores.credibility
               && bit_eq ea.Scores.confidence eb.Scores.confidence
               && bit_eq ea.Scores.distance_pvalue eb.Scores.distance_pvalue)
             a.Detector.experts b.Detector.experts
      in
      if not ok then
        failwith "stream bench: unit-weight verdicts diverged from the plain store")
    vp;
  Printf.printf "  unit-weight parity (all-ones reweight, %d queries): bit-identical\n"
    (Array.length traffic);
  (* --- Live ingestion loop. --- *)
  let service = Service.create triples in
  let window = Stdlib.max 1 (capacity / 2) in
  let stream =
    Stream.create ~policy:(Decay.Sliding { window }) ~capacity ~compact_fraction:0.5
      service
  in
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let latencies = ref [] in
  let lat_lock = Mutex.create () in
  let traffic_thread =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          let t0 = Unix.gettimeofday () in
          (try ignore (Service.evaluate_batch service traffic : Detector.cls_verdict array)
           with _ -> Atomic.incr failures);
          let dt = Unix.gettimeofday () -. t0 in
          Mutex.lock lat_lock;
          latencies := dt :: !latencies;
          Mutex.unlock lat_lock;
          Thread.yield ()
        done)
      ()
  in
  (* Baseline serving latency before any admission. *)
  let () = Thread.delay 0.2 in
  let baseline =
    Mutex.lock lat_lock;
    let l = Array.of_list !latencies in
    latencies := [];
    Mutex.unlock lat_lock;
    Array.sort Float.compare l;
    l
  in
  let rng = Prom_linalg.Rng.create (seed + 7) in
  let dim = Array.length calibration.Dataset.x.(0) in
  let n_classes = model.Model.n_classes in
  let max_swap = ref 0.0 and sum_swap = ref 0.0 in
  let max_rebuild = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to admissions - 1 do
    let label = i mod n_classes in
    (* Admissions drift slowly away from the seeding blobs, so the
       sliding window genuinely forgets the original region. *)
    let x =
      Array.init dim (fun j ->
          float_of_int (label * (1 + (j mod 3)))
          +. (0.002 *. float_of_int i)
          +. Prom_linalg.Rng.gaussian rng ~mu:0.0 ~sigma:1.5)
    in
    Stream.admit stream ~features:x ~label ~proba:(model.Model.predict_proba x);
    let st = Stream.stats stream in
    max_swap := Stdlib.max !max_swap st.Stream.last_swap_s;
    sum_swap := !sum_swap +. st.Stream.last_swap_s;
    max_rebuild := Stdlib.max !max_rebuild st.Stream.last_rebuild_s
  done;
  let admit_total = Unix.gettimeofday () -. t0 in
  Atomic.set stop true;
  Thread.join traffic_thread;
  let live =
    let l = Array.of_list !latencies in
    Array.sort Float.compare l;
    l
  in
  if Atomic.get failures > 0 then
    failwith
      (Printf.sprintf "stream bench: %d requests failed during ingestion"
         (Atomic.get failures));
  let st = Stream.stats stream in
  if st.Stream.compactions = 0 then
    failwith "stream bench: ingestion never triggered a compaction";
  let p arr q = if Array.length arr = 0 then 0.0 else percentile arr q in
  let admits_per_s = float_of_int admissions /. admit_total in
  let mean_swap_ms = !sum_swap /. float_of_int admissions *. 1000.0 in
  Printf.printf "  admissions        %6d in %.2fs (%6.0f admits/sec)\n" admissions
    admit_total admits_per_s;
  Printf.printf "  store             resident %d | live %d | evicted %d | compactions %d\n"
    st.Stream.resident st.Stream.live st.Stream.evicted st.Stream.compactions;
  Printf.printf "  publish (swap)    mean %.3f ms | max %.3f ms | rebuild max %.3f ms\n"
    mean_swap_ms (!max_swap *. 1000.0) (!max_rebuild *. 1000.0);
  Printf.printf
    "  live traffic      %d batches, 0 failures | batch p50 %.3f ms (baseline %.3f ms)\n"
    (Array.length live + Array.length baseline)
    (p live 0.5 *. 1000.0) (p baseline 0.5 *. 1000.0);
  let oc = open_out json_path in
  Printf.fprintf oc
    {|{
  "calibration_entries": %d,
  "admissions": %d,
  "capacity": %d,
  "window": %d,
  "admits_per_sec": %.1f,
  "publishes": %d,
  "compactions": %d,
  "evicted": %d,
  "final_resident": %d,
  "swap_ms": { "mean": %.4f, "max": %.4f },
  "rebuild_ms_max": %.4f,
  "live_traffic": {
    "batches": %d,
    "failures": %d,
    "batch_p50_ms": %.4f,
    "batch_p99_ms": %.4f,
    "baseline_p50_ms": %.4f
  }
}
|}
    n_cal admissions capacity window admits_per_s st.Stream.publishes
    st.Stream.compactions st.Stream.evicted st.Stream.resident mean_swap_ms
    (!max_swap *. 1000.0)
    (!max_rebuild *. 1000.0)
    (Array.length live) (Atomic.get failures)
    (p live 0.5 *. 1000.0)
    (p live 0.99 *. 1000.0)
    (p baseline 0.5 *. 1000.0);
  close_out oc;
  Printf.printf "  wrote %s\n" json_path

let stream_bench () =
  stream_section ~n_cal:600 ~admissions:1500 ~capacity:800
    ~json_path:"BENCH_stream.json" ()

let stream_smoke () =
  stream_section ~n_cal:160 ~admissions:240 ~capacity:200
    ~json_path:"BENCH_stream_smoke.json" ()

let sections =
  [
    ("table2", table2);
    ("fig1", fig1);
    ("ablation", ablation);
    ("table3", table3);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13a", fig13a);
    ("fig13b", fig13b);
    ("fig13c", fig13c);
    ("fig13d", fig13d);
    ("overhead", overhead);
    ("inference", inference);
    ("inference-smoke", inference_smoke);
    ("prep", prep);
    ("prep-smoke", prep_smoke);
    ("snapshot", snapshot);
    ("snapshot-smoke", snapshot_smoke);
    ("index", index_bench);
    ("index-smoke", index_smoke);
    ("kernels", kernels_bench);
    ("kernels-smoke", kernels_smoke);
    ("serve", serve_bench);
    ("serve-smoke", serve_bench_smoke);
    ("tenants", tenants_bench);
    ("tenants-smoke", tenants_bench_smoke);
    ("stream", stream_bench);
    ("stream-smoke", stream_smoke);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    (* The [-smoke] variants are for the bench-smoke CI alias only; the
       default run uses the full-scale sections. *)
    | _ ->
        List.filter
          (fun n ->
            n <> "inference-smoke" && n <> "prep-smoke"
            && n <> "snapshot-smoke" && n <> "serve-smoke" && n <> "index-smoke"
            && n <> "kernels-smoke" && n <> "stream-smoke"
            && n <> "tenants-smoke")
          (List.map fst sections)
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S; available: %s\n" name
            (String.concat ", " (List.map fst sections));
          exit 1)
    requested;
  Printf.printf "\nTotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
