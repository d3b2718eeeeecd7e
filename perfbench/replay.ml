(* The traced run's stage ledger. A query's evaluation is replayed from
   the public stage functions of [Prom.Calibration], [Prom.Pvalue] and
   [Prom.Scores], in the order [Detector] calls them, with a span
   around each stage. The replayed verdict must equal the one
   [Service.evaluate_batch] (classification) or
   [Detector.Regression.evaluate] (regression) returns, so the ledger
   times the program's own arithmetic.

   [sp] is either [Tr.span tr] (traced) or [untimed] — the same code
   with the stamps left out, which is the baseline of the tracing
   overhead. *)

open Prom
open Prom_linalg

type sp = { run : 'a. name:string -> parent:int -> req:int -> (int -> 'a) -> 'a }

let untimed = { run = (fun ~name:_ ~parent:_ ~req:_ f -> f 0) }
let traced tr = { run = (fun ~name ~parent ~req f -> Tr.span tr ~name ~parent ~req f) }

(* The committee mean, as [Detector] folds it. *)
let mean_of f experts =
  let rec go acc n = function
    | [] -> acc /. float_of_int n
    | e :: tl -> go (acc +. f e) (n + 1) tl
  in
  go 0.0 0 experts

(* Per-entry committee tables and their packed-order twins, built as
   [Detector] builds them. *)
let permuted index tables =
  match index with
  | None -> List.map (fun s -> (s, [||])) tables
  | Some ix ->
      let order = Knn_index.member_order ix in
      List.map (fun s -> (s, Array.map (fun i -> s.(i)) order)) tables

type cls = {
  cal : Calibration.cls;
  cfg : Config.t;
  committee : Nonconformity.cls list;
  scores : (float array * float array) list;
  labels : int array;
  packed_labels : int array;
}

let cls_of_service svc =
  match Service.snapshot svc with
  | Snapshot.Reg _ -> invalid_arg "cls_of_service"
  | Snapshot.Cls s ->
      let cal = s.Snapshot.cls_calibration in
      let entries = cal.Calibration.entries in
      let labels = Array.map (fun e -> e.Calibration.label) entries in
      let index = Calibration.index_of_cls cal in
      {
        cal;
        cfg = s.Snapshot.cls_config;
        committee = s.Snapshot.cls_committee;
        scores =
          permuted index
            (List.map
               (fun fn ->
                 Array.map
                   (fun e ->
                     fn.Nonconformity.cls_score ~proba:e.Calibration.proba
                       ~label:e.Calibration.label)
                   entries)
               s.Snapshot.cls_committee);
        labels;
        packed_labels =
          (match index with
          | None -> [||]
          | Some ix -> Array.map (fun i -> labels.(i)) (Knn_index.member_order ix));
      }

let eval_cls (sp : sp) ~req e (x, proba) : Detector.cls_verdict =
  sp.run ~name:"detector.evaluate" ~parent:(-1) ~req (fun pid ->
         let st name f = sp.run ~name ~parent:pid ~req (fun _ -> f ()) in
         let cal = e.cal in
         let v = st "calibration.standardize" (fun () -> Calibration.standardize_cls cal x) in
         let d = st "calibration.query_distances" (fun () -> Calibration.query_distances_cls cal v) in
         let selection =
           st "calibration.select" (fun () ->
               Calibration.select_packed_dists ~tau:cal.Calibration.tau
                 ~entry_weights:cal.Calibration.ent_weights
                 ~packed_weights:cal.Calibration.pk_weights ~config:e.cfg d)
         in
         let distance_pvalue =
           st "calibration.distance_pvalue" (fun () -> Calibration.distance_pvalue_cls_dists cal d)
         in
           st "committee" (fun () ->
                let predicted = Vec.argmax proba in
                let n_classes = Array.length proba in
                let experts =
                  List.map2
                    (fun fn (entry_scores, packed_scores) ->
                      let test_scores =
                        Array.init n_classes (fun label ->
                            fn.Nonconformity.cls_score ~proba ~label)
                      in
                      let pvalues, set_pvalues =
                        Pvalue.classification_all_table ~packed_scores
                          ~packed_labels:e.packed_labels ~entry_scores ~entry_labels:e.labels
                          ~selection ~test_scores ~n_classes ()
                      in
                      Scores.expert_verdict ~distance_pvalue ~set_pvalues
                        ~discrete:fn.Nonconformity.cls_discrete ~config:e.cfg
                        ~expert:fn.Nonconformity.cls_name ~pvalues ~predicted ())
                    e.committee e.scores
                in
                {
                  Detector.predicted;
                  proba;
                  experts;
                  drifted = Scores.committee_decision ~config:e.cfg experts;
                  mean_credibility = mean_of (fun v -> v.Scores.credibility) experts;
                  mean_confidence = mean_of (fun v -> v.Scores.confidence) experts;
                }))

type reg = {
  rcal : Calibration.reg;
  rcfg : Config.t;
  rcommittee : Nonconformity.reg list;
  rscores : (float array * float array) list;
  clusters : int array;
  model : Prom_ml.Model.regressor;
}

let reg_of_detector det =
  let rcal = Detector.Regression.calibration det in
  let committee = Detector.Regression.committee det in
  let entries = rcal.Calibration.rentries in
  {
    rcal;
    rcfg = Detector.Regression.config det;
    rcommittee = committee;
    rscores =
      permuted (Calibration.index_of_reg rcal)
        (List.map
           (fun fn ->
             Array.map
               (fun e ->
                 fn.Nonconformity.reg_score ~pred:e.Calibration.rpred ~truth:e.Calibration.rproxy
                   ~spread:(Float.max e.Calibration.rspread 1e-6))
               entries)
           committee);
    clusters = Array.map (fun e -> e.Calibration.cluster) entries;
    model = Detector.Regression.model det;
  }

let eval_reg (sp : sp) ~req e x : Detector.reg_verdict =
  sp.run ~name:"reg.evaluate" ~parent:(-1) ~req (fun pid ->
         let st name f = sp.run ~name ~parent:pid ~req (fun _ -> f ()) in
         let cal = e.rcal in
         let predicted_value = e.model.Prom_ml.Model.predict x in
         let v = st "reg.standardize" (fun () -> Calibration.standardize_reg cal x) in
         let d = st "reg.query_distances" (fun () -> Calibration.query_distances_reg cal v) in
         let knn_estimate, knn_spread =
           st "reg.knn_truth" (fun () -> Calibration.knn_truth_dists cal d ~k:e.rcfg.Config.knn_k)
         in
         let cluster = st "reg.assign_cluster" (fun () -> Calibration.assign_cluster_dists cal d) in
         let selection =
           st "reg.select" (fun () ->
               Calibration.select_packed_dists ~tau:cal.Calibration.rtau
                 ~entry_weights:cal.Calibration.rent_weights
                 ~packed_weights:cal.Calibration.rpk_weights ~config:e.rcfg d)
         in
         let distance_pvalue =
           st "reg.distance_pvalue" (fun () -> Calibration.distance_pvalue_reg_dists cal d)
         in
           st "reg.committee" (fun () ->
                let n_clusters = cal.Calibration.n_clusters in
                let experts =
                  List.map2
                    (fun fn (entry_scores, packed_scores) ->
                      let test_score =
                        fn.Nonconformity.reg_score ~pred:predicted_value ~truth:knn_estimate
                          ~spread:(Float.max knn_spread 1e-6)
                      in
                      let pvalues, set_pvalues =
                        Pvalue.regression_all_table ~packed_scores
                          ~packed_clusters:cal.Calibration.rpk_clusters ~entry_scores
                          ~entry_clusters:e.clusters ~selection ~n_clusters ~test_score ()
                      in
                      Scores.expert_verdict ~distance_pvalue ~set_pvalues ~use_confidence:false
                        ~config:e.rcfg ~expert:fn.Nonconformity.reg_name ~pvalues
                        ~predicted:cluster ())
                    e.rcommittee e.rscores
                in
                {
                  Detector.predicted_value;
                  cluster;
                  knn_estimate;
                  reg_experts = experts;
                  reg_drifted = Scores.committee_decision ~config:e.rcfg experts;
                  reg_mean_credibility = mean_of (fun v -> v.Scores.credibility) experts;
                  reg_mean_confidence = mean_of (fun v -> v.Scores.confidence) experts;
                }))

(* Time the dense distance scan over a calibration matrix: ns per row,
   and GB/s computed from the n·d·8 bytes of rows each scan reads. *)
let kernel_scan fm (qs : Vec.t array) ~seconds =
  let n = Featmat.length fm and d = Featmat.dim fm in
  let buf = Array.make n 0.0 in
  let scans = ref 0 in
  let t0 = Tr.now () in
  let deadline = t0 +. seconds in
  while Tr.now () < deadline do
    for _ = 1 to 16 do
      Featmat.sq_dists_into fm qs.(!scans mod Array.length qs) buf;
      incr scans
    done
  done;
  let dt = Tr.now () -. t0 in
  let rows = float_of_int (!scans * n) in
  (dt /. rows *. 1e9, rows *. float_of_int (d * 8) /. dt /. 1e9)
