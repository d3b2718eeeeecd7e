(* Seeded inputs. Everything a workload feeds the program — calibration
   triples, queries, relabeled samples, regression data — comes from
   [make ~seed], so the same seed gives the same inputs, in the
   benchmark process and in the server child it spawns.

   The task itself — class means, drift directions, cost weights — is
   fixed by [task]; the seed draws the samples. Seeds then vary the
   inputs without varying how hard the task is, so run-to-run spread
   measures the program, not the luck of the geometry.

   The host is a compiler heuristic with a trained classifier over
   16-d program embeddings (4 classes, Gaussian blobs) and a linear
   cost model fitted by least squares. A seeded share of queries is
   drifted: shifted away from every class blob, as code from an unseen
   project would be. *)

open Prom_linalg
open Prom_ml

let dim = 16
let n_classes = 4
let sigma = 1.5

(* Share of drifted inputs in every query stream. *)
let drift_share = 0.3

type t = {
  rng : Rng.t;
  means : Vec.t array;
  drift_dirs : Vec.t array;
  cent : Vec.t array;  (** fitted class centroids *)
  inv2s2 : float;
  cost_w : Vec.t;
  model_reg : Model.regressor;
}

let sample_in w label =
  Array.init dim (fun j -> w.means.(label).(j) +. Rng.gaussian w.rng ~mu:0.0 ~sigma)

let sample_drift w label =
  let d = w.drift_dirs.(Rng.int w.rng (Array.length w.drift_dirs)) in
  Array.init dim (fun j ->
      w.means.(label).(j) +. (4.0 *. d.(j)) +. Rng.gaussian w.rng ~mu:0.0 ~sigma:(1.3 *. sigma))

(* The classifier: softmax over negative squared distance to the class
   centroids fitted on the training split. *)
let proba w x =
  Vec.softmax (Array.map (fun c -> -.Vec.norm_sq (Vec.sub c x) *. w.inv2s2) w.cent)

let unit_vec rng =
  let v = Array.init dim (fun _ -> Rng.gaussian rng ~mu:0.0 ~sigma:1.0) in
  Vec.scale (1.0 /. sqrt (Vec.dot v v)) v

let cost w x = Vec.dot w.cost_w x +. Rng.gaussian w.rng ~mu:0.0 ~sigma:0.3

let make ?(task = 0) ~seed () =
  let trng = Rng.create (2025 + task) in
  let means =
    Array.init n_classes (fun _ -> Array.init dim (fun _ -> Rng.uniform trng ~lo:(-1.5) ~hi:1.5))
  in
  let drift_dirs = Array.init 8 (fun _ -> Vec.scale sigma (unit_vec trng)) in
  let cost_w = Array.init dim (fun _ -> Rng.uniform trng ~lo:(-1.0) ~hi:1.0) in
  let rng = Rng.create seed in
  let w0 =
    {
      rng;
      means;
      drift_dirs;
      cent = means;
      inv2s2 = 0.0;
      cost_w;
      model_reg = { Model.predict = (fun _ -> 0.0); name = ""; reg_state = Model.No_state };
    }
  in
  (* Training split: fit the centroids, a pooled variance and the cost
     model. *)
  let n_train = 2000 in
  let labels = Array.init n_train (fun i -> i mod n_classes) in
  let xs = Array.map (sample_in w0) labels in
  let cent =
    Array.init n_classes (fun c ->
        let acc = Array.make dim 0.0 in
        let k = ref 0 in
        Array.iteri
          (fun i x ->
            if labels.(i) = c then begin
              incr k;
              Array.iteri (fun j v -> acc.(j) <- acc.(j) +. v) x
            end)
          xs;
        Vec.scale (1.0 /. float_of_int !k) acc)
  in
  let var =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun i x -> Vec.norm_sq (Vec.sub x cent.(labels.(i)))) xs)
    /. float_of_int (n_train * dim)
  in
  let w1 = { w0 with cent; inv2s2 = 1.0 /. (2.0 *. var) } in
  let model_reg = Linreg.train (Dataset.create xs (Array.map (cost w1) xs)) in
  { w1 with model_reg }

(* A labelled query: features, the host model's probabilities and the
   true label. *)
type query = { x : Vec.t; p : Vec.t; label : int }

let query w =
  let label = Rng.int w.rng n_classes in
  let drifted = Rng.bernoulli w.rng drift_share in
  let x = if drifted then sample_drift w label else sample_in w label in
  { x; p = proba w x; label }

let queries w n = Array.init n (fun _ -> query w)

(* Calibration triples of the held-out split: in-distribution only, as
   at design time. *)
let calibration w n =
  List.init n (fun i ->
      let label = i mod n_classes in
      let x = sample_in w label in
      (x, label, proba w x))

(* Regression calibration set over the same embedding distribution. *)
let reg_calibration w n =
  let xs = Array.init n (fun i -> sample_in w (i mod n_classes)) in
  Dataset.create xs (Array.map (cost w) xs)

(* Relabeled samples for the admit path: drifted inputs that came back
   with their true label. *)
let relabeled w n =
  Array.init n (fun _ ->
      let label = Rng.int w.rng n_classes in
      let x = sample_drift w label in
      { x; p = proba w x; label })
