(* Unit and property tests for the prom_linalg substrate. *)

open Prom_linalg

let check_float = Alcotest.(check (float 1e-9))
let check_floatish = Alcotest.(check (float 1e-6))

let rng_tests =
  [
    Alcotest.test_case "deterministic given seed" `Quick (fun () ->
        let a = Rng.create 5 and b = Rng.create 5 in
        for _ = 1 to 50 do
          Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
        let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
        Alcotest.(check bool) "streams differ" true (xs <> ys));
    Alcotest.test_case "int bounds" `Quick (fun () ->
        let rng = Rng.create 3 in
        for _ = 1 to 1000 do
          let x = Rng.int rng 7 in
          Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
        done);
    Alcotest.test_case "int rejects non-positive bound" `Quick (fun () ->
        Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
          (fun () -> ignore (Rng.int (Rng.create 1) 0)));
    Alcotest.test_case "uniform stays in range" `Quick (fun () ->
        let rng = Rng.create 4 in
        for _ = 1 to 1000 do
          let x = Rng.uniform rng ~lo:(-2.0) ~hi:3.0 in
          Alcotest.(check bool) "in range" true (x >= -2.0 && x < 3.0)
        done);
    Alcotest.test_case "gaussian moments" `Quick (fun () ->
        let rng = Rng.create 6 in
        let xs = Array.init 20000 (fun _ -> Rng.gaussian rng ~mu:2.0 ~sigma:0.5) in
        Alcotest.(check bool) "mean near 2" true (abs_float (Stats.mean xs -. 2.0) < 0.02);
        Alcotest.(check bool) "std near 0.5" true (abs_float (Stats.std xs -. 0.5) < 0.02));
    Alcotest.test_case "bernoulli frequency" `Quick (fun () ->
        let rng = Rng.create 7 in
        let hits = ref 0 in
        for _ = 1 to 10000 do
          if Rng.bernoulli rng 0.3 then incr hits
        done;
        Alcotest.(check bool) "near 0.3" true (abs_float (float_of_int !hits /. 10000.0 -. 0.3) < 0.02));
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let rng = Rng.create 8 in
        let a = Array.init 100 Fun.id in
        Rng.shuffle rng a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "same multiset" (Array.init 100 Fun.id) sorted);
    Alcotest.test_case "permutation covers 0..n-1" `Quick (fun () ->
        let p = Rng.permutation (Rng.create 9) 50 in
        let sorted = Array.copy p in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "complete" (Array.init 50 Fun.id) sorted);
    Alcotest.test_case "sample without replacement" `Quick (fun () ->
        let rng = Rng.create 10 in
        let s = Rng.sample rng (Array.init 20 Fun.id) 10 in
        let uniq = List.sort_uniq compare (Array.to_list s) in
        Alcotest.(check int) "distinct" 10 (List.length uniq));
    Alcotest.test_case "sample rejects oversize k" `Quick (fun () ->
        Alcotest.check_raises "too large" (Invalid_argument "Rng.sample: k out of range")
          (fun () -> ignore (Rng.sample (Rng.create 1) [| 1; 2 |] 3)));
    Alcotest.test_case "categorical respects weights" `Quick (fun () ->
        let rng = Rng.create 11 in
        let counts = Array.make 3 0 in
        for _ = 1 to 10000 do
          let i = Rng.categorical rng [| 1.0; 0.0; 3.0 |] in
          counts.(i) <- counts.(i) + 1
        done;
        Alcotest.(check int) "zero weight never drawn" 0 counts.(1);
        Alcotest.(check bool) "3x ratio" true
          (float_of_int counts.(2) /. float_of_int counts.(0) > 2.0));
    Alcotest.test_case "categorical rejects all-zero weights" `Quick (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Rng.categorical: weights sum to zero")
          (fun () -> ignore (Rng.categorical (Rng.create 1) [| 0.0; 0.0 |])));
    Alcotest.test_case "split decouples streams" `Quick (fun () ->
        let a = Rng.create 12 in
        let b = Rng.split a in
        let xs = List.init 10 (fun _ -> Rng.int a 1000) in
        let ys = List.init 10 (fun _ -> Rng.int b 1000) in
        Alcotest.(check bool) "independent" true (xs <> ys));
  ]

let vec_tests =
  [
    Alcotest.test_case "add/sub roundtrip" `Quick (fun () ->
        let a = [| 1.0; 2.0; 3.0 |] and b = [| 0.5; -1.0; 2.0 |] in
        Alcotest.(check (array (float 1e-12))) "a+b-b = a" a (Vec.sub (Vec.add a b) b));
    Alcotest.test_case "dot" `Quick (fun () ->
        check_float "dot" 11.0 (Vec.dot [| 1.0; 2.0; 3.0 |] [| 3.0; 1.0; 2.0 |]));
    Alcotest.test_case "dimension mismatch raises" `Quick (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
            ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |])));
    Alcotest.test_case "norm of 3-4-0" `Quick (fun () ->
        check_float "norm" 5.0 (Vec.norm [| 3.0; 4.0; 0.0 |]));
    Alcotest.test_case "axpy updates in place" `Quick (fun () ->
        let y = [| 1.0; 1.0 |] in
        Vec.axpy ~alpha:2.0 [| 1.0; 3.0 |] y;
        Alcotest.(check (array (float 1e-12))) "y" [| 3.0; 7.0 |] y);
    Alcotest.test_case "argmax picks first on ties" `Quick (fun () ->
        Alcotest.(check int) "first" 1 (Vec.argmax [| 0.0; 5.0; 5.0; 1.0 |]));
    Alcotest.test_case "softmax sums to one" `Quick (fun () ->
        check_floatish "sum" 1.0 (Vec.sum (Vec.softmax [| 1.0; 5.0; -2.0 |])));
    Alcotest.test_case "softmax is stable for large logits" `Quick (fun () ->
        let p = Vec.softmax [| 1000.0; 999.0 |] in
        Alcotest.(check bool) "finite" true (Float.is_finite p.(0) && Float.is_finite p.(1));
        check_floatish "sum" 1.0 (Vec.sum p));
    Alcotest.test_case "normalize yields unit norm" `Quick (fun () ->
        check_floatish "norm" 1.0 (Vec.norm (Vec.normalize [| 2.0; -7.0; 0.1 |])));
    Alcotest.test_case "normalize of zero vector is identity" `Quick (fun () ->
        Alcotest.(check (array (float 1e-12))) "zeros" [| 0.0; 0.0 |]
          (Vec.normalize [| 0.0; 0.0 |]));
  ]

let mat_tests =
  [
    Alcotest.test_case "matvec identity" `Quick (fun () ->
        let v = [| 1.0; 2.0; 3.0 |] in
        Alcotest.(check (array (float 1e-12))) "I v = v" v (Mat.matvec (Mat.identity 3) v));
    Alcotest.test_case "matmul associativity with identity" `Quick (fun () ->
        let m = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
        let p = Mat.matmul m (Mat.identity 2) in
        Alcotest.(check (array (float 1e-12))) "row0" m.(0) p.(0);
        Alcotest.(check (array (float 1e-12))) "row1" m.(1) p.(1));
    Alcotest.test_case "transpose involution" `Quick (fun () ->
        let m = Mat.init ~rows:3 ~cols:2 (fun i j -> float_of_int ((i * 10) + j)) in
        let t = Mat.transpose (Mat.transpose m) in
        for i = 0 to 2 do
          Alcotest.(check (array (float 1e-12))) "row" m.(i) t.(i)
        done);
    Alcotest.test_case "of_rows rejects ragged input" `Quick (fun () ->
        Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_rows: ragged rows")
          (fun () -> ignore (Mat.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |])));
    Alcotest.test_case "solve recovers solution" `Quick (fun () ->
        let a = Mat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
        let x = [| 1.5; -2.0 |] in
        let b = Mat.matvec a x in
        let got = Mat.solve a b in
        Alcotest.(check (array (float 1e-9))) "x" x got);
    Alcotest.test_case "solve with pivoting handles zero diagonal" `Quick (fun () ->
        let a = Mat.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
        let got = Mat.solve a [| 2.0; 3.0 |] in
        Alcotest.(check (array (float 1e-9))) "x" [| 3.0; 2.0 |] got);
    Alcotest.test_case "solve rejects singular matrix" `Quick (fun () ->
        Alcotest.check_raises "singular" (Failure "Mat.solve: singular matrix") (fun () ->
            ignore (Mat.solve (Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |]) [| 1.0; 2.0 |])));
    Alcotest.test_case "gram is symmetric" `Quick (fun () ->
        let m = Mat.init ~rows:4 ~cols:3 (fun i j -> float_of_int (i + (2 * j))) in
        let g = Mat.gram m in
        for i = 0 to 2 do
          for j = 0 to 2 do
            check_float "sym" g.(i).(j) g.(j).(i)
          done
        done);
  ]

let stats_tests =
  [
    Alcotest.test_case "mean" `Quick (fun () ->
        check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]));
    Alcotest.test_case "variance of constant is zero" `Quick (fun () ->
        check_float "var" 0.0 (Stats.variance [| 4.0; 4.0; 4.0 |]));
    Alcotest.test_case "sample variance uses n-1" `Quick (fun () ->
        check_float "var" 1.0 (Stats.sample_variance [| 1.0; 2.0; 3.0 |]));
    Alcotest.test_case "median odd and even" `Quick (fun () ->
        check_float "odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
        check_float "even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]));
    Alcotest.test_case "quantile endpoints" `Quick (fun () ->
        let a = [| 5.0; 1.0; 3.0 |] in
        check_float "q0" 1.0 (Stats.quantile a 0.0);
        check_float "q1" 5.0 (Stats.quantile a 1.0));
    Alcotest.test_case "quantile rejects out-of-range q" `Quick (fun () ->
        Alcotest.check_raises "q" (Invalid_argument "Stats.quantile: q outside [0,1]")
          (fun () -> ignore (Stats.quantile [| 1.0 |] 1.5)));
    Alcotest.test_case "geomean of powers" `Quick (fun () ->
        check_floatish "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |]));
    Alcotest.test_case "geomean rejects non-positive" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Stats.geomean: non-positive value")
          (fun () -> ignore (Stats.geomean [| 1.0; -1.0 |])));
    Alcotest.test_case "histogram counts all samples" `Quick (fun () ->
        let h = Stats.histogram [| 0.0; 0.5; 1.0; 0.9 |] ~bins:4 in
        Alcotest.(check int) "total" 4 (Array.fold_left ( + ) 0 h));
    Alcotest.test_case "histogram of constant array" `Quick (fun () ->
        let h = Stats.histogram [| 2.0; 2.0 |] ~bins:3 in
        Alcotest.(check int) "first bin" 2 h.(0));
    Alcotest.test_case "pearson of identical arrays" `Quick (fun () ->
        check_floatish "corr" 1.0 (Stats.pearson [| 1.0; 2.0; 3.0 |] [| 1.0; 2.0; 3.0 |]));
    Alcotest.test_case "pearson of anti-correlated arrays" `Quick (fun () ->
        check_floatish "corr" (-1.0) (Stats.pearson [| 1.0; 2.0; 3.0 |] [| 3.0; 2.0; 1.0 |]));
    Alcotest.test_case "pearson zero-variance guard" `Quick (fun () ->
        check_float "corr" 0.0 (Stats.pearson [| 1.0; 1.0 |] [| 1.0; 2.0 |]));
    Alcotest.test_case "standardize yields zero mean unit std" `Quick (fun () ->
        let z, _, _ = Stats.standardize [| 2.0; 4.0; 6.0; 8.0 |] in
        Alcotest.(check bool) "mean 0" true (abs_float (Stats.mean z) < 1e-9);
        Alcotest.(check bool) "std 1" true (abs_float (Stats.std z -. 1.0) < 1e-9));
    Alcotest.test_case "suffix_sums hand case" `Quick (fun () ->
        Alcotest.(check (array (float 0.0)))
          "sums" [| 6.0; 5.0; 3.0; 0.0 |]
          (Stats.suffix_sums [| 1.0; 2.0; 3.0 |]));
    Alcotest.test_case "suffix_sums of empty is the zero sentinel" `Quick (fun () ->
        Alcotest.(check (array (float 0.0))) "sentinel" [| 0.0 |]
          (Stats.suffix_sums [||]));
    Alcotest.test_case "suffix_sums accumulates right to left exactly" `Quick
      (fun () ->
        (* integer-valued floats accumulate without rounding, so the
           deterministic descending-index order is bit-checkable *)
        let a = Array.init 17 (fun i -> float_of_int ((i * 7 mod 5) + 1)) in
        let s = Stats.suffix_sums a in
        Alcotest.(check int) "length" (Array.length a + 1) (Array.length s);
        for i = Array.length a - 1 downto 0 do
          Alcotest.(check (float 0.0)) "recurrence" (a.(i) +. s.(i + 1)) s.(i)
        done);
  ]

let distance_tests =
  [
    Alcotest.test_case "euclidean" `Quick (fun () ->
        check_float "dist" 5.0 (Distance.euclidean [| 0.0; 0.0 |] [| 3.0; 4.0 |]));
    Alcotest.test_case "manhattan" `Quick (fun () ->
        check_float "dist" 7.0 (Distance.manhattan [| 0.0; 0.0 |] [| 3.0; 4.0 |]));
    Alcotest.test_case "chebyshev" `Quick (fun () ->
        check_float "dist" 4.0 (Distance.chebyshev [| 0.0; 0.0 |] [| 3.0; 4.0 |]));
    Alcotest.test_case "cosine of parallel vectors is zero" `Quick (fun () ->
        check_floatish "cos" 0.0 (Distance.cosine [| 1.0; 2.0 |] [| 2.0; 4.0 |]));
    Alcotest.test_case "cosine of orthogonal vectors is one" `Quick (fun () ->
        check_floatish "cos" 1.0 (Distance.cosine [| 1.0; 0.0 |] [| 0.0; 1.0 |]));
    Alcotest.test_case "cosine zero-vector convention" `Quick (fun () ->
        check_float "cos" 1.0 (Distance.cosine [| 0.0; 0.0 |] [| 1.0; 1.0 |]));
    Alcotest.test_case "nearest returns sorted neighbours" `Quick (fun () ->
        let xs = [| [| 0.0 |]; [| 10.0 |]; [| 3.0 |]; [| 5.0 |] |] in
        let idx = Distance.nearest ~dist:Distance.euclidean xs [| 4.0 |] 3 in
        Alcotest.(check (array int)) "order" [| 2; 3; 0 |] idx);
    Alcotest.test_case "nearest clamps k" `Quick (fun () ->
        let xs = [| [| 0.0 |]; [| 1.0 |] |] in
        Alcotest.(check int) "clamped" 2
          (Array.length (Distance.nearest ~dist:Distance.euclidean xs [| 0.0 |] 10)));
  ]

(* Sort-based reference for top-k selection: indices ordered by
   ascending (value, index) — the contract Select must reproduce. *)
let topk_reference xs k =
  let n = Array.length xs in
  let idx = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      match Float.compare xs.(i) xs.(j) with 0 -> compare i j | c -> c)
    idx;
  Array.sub idx 0 (Stdlib.min k n)

(* [topk_reference] with the materialized selection's NaN rule: every
   NaN sorts after +infinity and NaNs tie (index order). Equal to
   [topk_reference] on NaN-free input. *)
let topk_reference_nan_last xs k =
  let n = Array.length xs in
  let idx = Array.init n Fun.id in
  let cmp a b =
    match (Float.is_nan a, Float.is_nan b) with
    | true, true -> 0
    | true, false -> 1
    | false, true -> -1
    | false, false -> Float.compare a b
  in
  Array.sort (fun i j -> match cmp xs.(i) xs.(j) with 0 -> compare i j | c -> c) idx;
  Array.sub idx 0 (Stdlib.min k n)

(* Run [select_in_place] on [xs] in workspace [s]; true when the kept
   prefix has exactly the reference's indices and each kept value has
   the bits of its key. *)
let select_matches ?(reference = topk_reference) s xs k =
  let n = Array.length xs in
  Array.blit xs 0 (Select.scratch_keys s n) 0 n;
  Select.select_in_place s ~n ~k;
  let idxs = Array.sub (Select.scratch_idxs s) 0 k in
  let vals = Select.scratch_vals s in
  idxs = reference xs k
  && Array.for_all Fun.id
       (Array.mapi
          (fun r i -> Int64.equal (Int64.bits_of_float vals.(r)) (Int64.bits_of_float xs.(i)))
          idxs)

let select_tests =
  [
    Alcotest.test_case "smallest_k on a hand case" `Quick (fun () ->
        Alcotest.(check (array int))
          "order" [| 3; 0; 2 |]
          (Select.smallest_k [| 2.0; 9.0; 5.0; 1.0 |] 3));
    Alcotest.test_case "duplicate values break ties by index" `Quick (fun () ->
        let xs = [| 1.0; 0.5; 0.5; 1.0; 0.5 |] in
        Alcotest.(check (array int)) "ties" [| 1; 2; 4; 0 |] (Select.smallest_k xs 4));
    Alcotest.test_case "k clamps to the array length" `Quick (fun () ->
        Alcotest.(check (array int)) "all" [| 1; 0 |]
          (Select.smallest_k [| 2.0; 1.0 |] 10));
    Alcotest.test_case "negative k rejected" `Quick (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Select.smallest_k: negative k")
          (fun () -> ignore (Select.smallest_k [| 1.0 |] (-1))));
    Alcotest.test_case "smallest_k_pairs carries the values" `Quick (fun () ->
        let xs = [| 3.0; 1.0; 2.0 |] in
        Array.iter
          (fun (i, v) -> check_float "value" xs.(i) v)
          (Select.smallest_k_pairs xs 3));
    Alcotest.test_case "streaming heap agrees with the reference" `Quick (fun () ->
        let xs = [| 4.0; 0.0; 4.0; 2.0; 7.0; 0.0; 2.0 |] in
        let h = Select.heap_create 4 in
        Array.iteri (fun i v -> Select.offer h v i) xs;
        Alcotest.(check (array int))
          "order" (topk_reference xs 4)
          (Array.map fst (Select.drain_sorted h)));
    Alcotest.test_case "select_in_place orders the prefix" `Quick (fun () ->
        let xs = [| 5.0; 1.0; 3.0; 3.0; 0.0; 2.0 |] in
        let s = Select.scratch_create () in
        let keys = Select.scratch_keys s (Array.length xs) in
        Array.blit xs 0 keys 0 (Array.length xs);
        Select.select_in_place s ~n:(Array.length xs) ~k:4;
        let idxs = Select.scratch_idxs s and vals = Select.scratch_vals s in
        Alcotest.(check (array int)) "prefix" (topk_reference xs 4) (Array.sub idxs 0 4);
        for r = 0 to 3 do
          check_float "value follows index" xs.(idxs.(r)) vals.(r)
        done);
    Alcotest.test_case "scratch is reusable across sizes" `Quick (fun () ->
        let s = Select.scratch_create () in
        List.iter
          (fun xs ->
            let n = Array.length xs in
            let keys = Select.scratch_keys s n in
            Array.blit xs 0 keys 0 n;
            Select.select_in_place s ~n ~k:n;
            Alcotest.(check (array int))
              "full sort" (topk_reference xs n)
              (Array.sub (Select.scratch_idxs s) 0 n))
          [ [| 3.0; 1.0 |]; [| 9.0; 2.0; 2.0; 7.0; 0.0 |]; [| 1.0 |] ]);
    Alcotest.test_case "all-equal keys past the radix cutoff stay in index order" `Quick
      (fun () ->
        let s = Select.scratch_create () in
        List.iter
          (fun (n, v) ->
            let xs = Array.make n v in
            List.iter
              (fun k ->
                Alcotest.(check bool)
                  (Printf.sprintf "n=%d k=%d" n k)
                  true
                  (select_matches ~reference:topk_reference_nan_last s xs k))
              [ 0; 1; n / 2; n - 1; n ])
          [ (4096, 3.0); (5000, 0.0); (4096, nan); (65536, 1.5) ]);
    Alcotest.test_case "NaN sorts last and -0.0 ties +0.0" `Quick (fun () ->
        let xs =
          Array.init 200 (fun i ->
              match i mod 5 with
              | 0 -> nan
              | 1 -> -0.0
              | 2 -> 0.0
              | 3 -> Int64.float_of_bits 0xFFF8_0000_0000_0001L (* a negative NaN *)
              | _ -> infinity)
        in
        let s = Select.scratch_create () in
        Alcotest.(check bool) "full order" true
          (select_matches ~reference:topk_reference_nan_last s xs 200);
        let idxs = Select.smallest_k xs 200 in
        Alcotest.(check (array int)) "zeros by index, then infinities"
          (Array.init 120 (fun j -> if j < 80 then (5 * (j / 2)) + 1 + (j mod 2) else (5 * (j - 80)) + 4))
          (Array.sub idxs 0 120);
        Alcotest.(check bool) "then every NaN" true
          (Array.for_all (fun i -> Float.is_nan xs.(i)) (Array.sub idxs 120 80)));
    Alcotest.test_case "heap_reset + drain_into reuse one heap" `Quick (fun () ->
        let h = Select.heap_create 0 in
        let idxs = Array.make 8 (-1) and vals = Array.make 8 nan in
        List.iter
          (fun (xs, k) ->
            Select.heap_reset h k;
            Array.iteri (fun i v -> Select.offer h v i) xs;
            let m = Select.drain_into h ~idxs ~vals in
            let expect = topk_reference xs k in
            Alcotest.(check int) "count" (Array.length expect) m;
            Alcotest.(check (array int)) "order" expect (Array.sub idxs 0 m);
            Array.iteri
              (fun r i -> check_float "value follows index" xs.(i) vals.(r))
              (Array.sub idxs 0 m))
          [
            ([| 4.0; 0.0; 4.0; 2.0; 7.0; 0.0; 2.0 |], 4);
            ([| 1.0; 1.0; 1.0 |], 8);
            ([| 5.0 |], 1);
            ([| 2.0; 3.0 |], 0);
          ]);
    Alcotest.test_case "drain_into rejects undersized scratch" `Quick (fun () ->
        let h = Select.heap_create 3 in
        Array.iteri (fun i v -> Select.offer h v i) [| 3.0; 1.0; 2.0 |];
        Alcotest.check_raises "small"
          (Invalid_argument "Select.drain_into: scratch too small") (fun () ->
            ignore (Select.drain_into h ~idxs:(Array.make 2 0) ~vals:(Array.make 2 0.0))));
    Alcotest.test_case "scale_by folds factors through the index map" `Quick
      (fun () ->
        let weights = [| 0.5; 0.25; 1.0; 9.0 |] in
        let idxs = [| 2; 0; 1; 7 |] in
        let factors = [| 0.5; 0.0; 2.0 |] in
        (* n = 3: the prefix is scaled, the tail (and its out-of-range
           idx entry) is never touched *)
        Select.scale_by ~weights ~idxs ~factors ~n:3;
        Alcotest.(check (array (float 0.0)))
          "scaled prefix, untouched tail" [| 1.0; 0.125; 0.0; 9.0 |] weights);
    Alcotest.test_case "scale_by with unit factors is the identity" `Quick
      (fun () ->
        let weights = [| 0.125; 0.75; 0.375 |] in
        let before = Array.copy weights in
        Select.scale_by ~weights ~idxs:[| 1; 2; 0 |] ~factors:(Array.make 3 1.0)
          ~n:3;
        Alcotest.(check (array (float 0.0))) "bit-identical" before weights);
    Alcotest.test_case "scale_by rejects an oversized prefix" `Quick (fun () ->
        Alcotest.check_raises "n too large"
          (Invalid_argument "Select.scale_by: bad n") (fun () ->
            Select.scale_by ~weights:(Array.make 2 1.0) ~idxs:[| 0; 1 |]
              ~factors:[| 1.0 |] ~n:3))
  ]

let featmat_tests =
  [
    Alcotest.test_case "rows round-trip" `Quick (fun () ->
        let rows = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
        let fm = Featmat.of_rows rows in
        Alcotest.(check int) "n" 3 (Featmat.length fm);
        Alcotest.(check int) "dim" 2 (Featmat.dim fm);
        Array.iteri
          (fun i row -> Alcotest.(check (array (float 0.0))) "row" row (Featmat.row fm i))
          rows);
    Alcotest.test_case "ragged rows rejected" `Quick (fun () ->
        Alcotest.check_raises "ragged" (Invalid_argument "Featmat.of_rows: ragged rows")
          (fun () -> ignore (Featmat.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |])));
    Alcotest.test_case "sq_dist_row matches Distance" `Quick (fun () ->
        let rows = [| [| 0.0; 1.0 |]; [| -2.0; 3.0 |] |] in
        let fm = Featmat.of_rows rows in
        let v = [| 1.5; -0.5 |] in
        Array.iteri
          (fun i row ->
            check_float "sq" (Distance.sq_euclidean row v) (Featmat.sq_dist_row fm i v))
          rows);
    Alcotest.test_case "nearest agrees with the vector path" `Quick (fun () ->
        let rows = Array.init 30 (fun i -> [| float_of_int (i mod 7); float_of_int i |]) in
        let fm = Featmat.of_rows rows in
        let v = [| 3.0; 11.0 |] in
        let got = Featmat.nearest fm v ~k:5 in
        let sq = Array.map (fun row -> Distance.sq_euclidean row v) rows in
        Alcotest.(check (array int)) "indices" (topk_reference sq 5) (Array.map fst got);
        Array.iter
          (fun (i, d) -> check_float "distance" (Distance.euclidean rows.(i) v) d)
          got);
    Alcotest.test_case "sq_dists_into accepts a larger buffer" `Quick (fun () ->
        let rows = [| [| 0.0 |]; [| 2.0 |]; [| 5.0 |] |] in
        let fm = Featmat.of_rows rows in
        let out = Array.make 10 nan in
        Featmat.sq_dists_into fm [| 1.0 |] out;
        Alcotest.(check (array (float 1e-12))) "prefix" [| 1.0; 1.0; 16.0 |]
          (Array.sub out 0 3));
    Alcotest.test_case "knn_mean_dist averages the k nearest" `Quick (fun () ->
        let rows = [| [| 0.0 |]; [| 1.0 |]; [| 10.0 |] |] in
        let fm = Featmat.of_rows rows in
        check_float "mean" 0.5 (Featmat.knn_mean_dist fm [| 0.5 |] ~k:2));
    Alcotest.test_case "append keeps old rows and adds new ones" `Quick (fun () ->
        let fm = Featmat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
        let fm' = Featmat.append fm [| [| 5.0; 6.0 |] |] in
        Alcotest.(check int) "n" 3 (Featmat.length fm');
        Alcotest.(check (array (float 0.0))) "old row" [| 3.0; 4.0 |] (Featmat.row fm' 1);
        Alcotest.(check (array (float 0.0))) "new row" [| 5.0; 6.0 |] (Featmat.row fm' 2);
        let v = [| 0.5; -1.0 |] in
        check_float "old distances unchanged" (Featmat.sq_dist_row fm 0 v)
          (Featmat.sq_dist_row fm' 0 v));
    Alcotest.test_case "append to empty adopts the rows" `Quick (fun () ->
        let fm = Featmat.append (Featmat.of_rows [||]) [| [| 7.0 |]; [| 8.0 |] |] in
        Alcotest.(check int) "n" 2 (Featmat.length fm);
        Alcotest.(check int) "dim" 1 (Featmat.dim fm));
    Alcotest.test_case "append rejects ragged rows" `Quick (fun () ->
        let fm = Featmat.of_rows [| [| 1.0; 2.0 |] |] in
        Alcotest.check_raises "ragged" (Invalid_argument "Featmat.append: ragged rows")
          (fun () -> ignore (Featmat.append fm [| [| 1.0 |] |])));
    Alcotest.test_case "sq_dists_cross_block bit-equals row scans" `Quick (fun () ->
        let a = Featmat.of_rows (Array.init 9 (fun i -> [| float_of_int i; 1.0; -0.5 |])) in
        let b =
          Featmat.of_rows (Array.init 5 (fun i -> [| 0.25 *. float_of_int i; -2.0; 3.0 |]))
        in
        let out = Array.make (3 * Featmat.length b) nan in
        Featmat.sq_dists_cross_block a ~r0:4 ~r1:7 b out;
        for q = 0 to 2 do
          let v = Featmat.row a (4 + q) in
          for i = 0 to Featmat.length b - 1 do
            Alcotest.(check (float 0.0)) "cell" (Featmat.sq_dist_row b i v)
              out.((q * Featmat.length b) + i)
          done
        done);
  ]

(* Brute-force reference for the pruned index: full scan + top-k by
   ascending (squared distance, row index) — what Knn_index.query_into
   must reproduce bit for bit. *)
let knn_reference fm v k =
  let n = Featmat.length fm in
  let sq = Array.init n (fun i -> Featmat.sq_dist_row fm i v) in
  let idx = Array.init n Fun.id in
  Array.sort
    (fun i j -> match Float.compare sq.(i) sq.(j) with 0 -> compare i j | c -> c)
    idx;
  let k = Stdlib.min k n in
  (Array.sub idx 0 k, Array.init k (fun r -> sq.(idx.(r))))

(* Check [queries] against the reference at every k in [ks], sorting
   each query's distances once; [on_stats k acc] sees each query's
   scan/prune counts. *)
let check_index_queries ?(on_stats = fun _ _ -> ()) idx fm queries ks =
  let kmax = List.fold_left Stdlib.max 1 ks in
  let gi = Array.make kmax (-1) and gv = Array.make kmax nan in
  Array.iter
    (fun v ->
      let want_i, want_v = knn_reference fm v kmax in
      List.iter
        (fun k ->
          let acc = Knn_index.acc_create () in
          let m = Knn_index.query_into ~stats:acc idx fm v ~k ~idxs:gi ~vals:gv ~off:0 in
          let k = Stdlib.min k (Featmat.length fm) in
          Alcotest.(check int) "count" k m;
          Alcotest.(check (array int)) "indices" (Array.sub want_i 0 k) (Array.sub gi 0 m);
          Alcotest.(check (array int64)) "value bits"
            (Array.map Int64.bits_of_float (Array.sub want_v 0 k))
            (Array.map Int64.bits_of_float (Array.sub gv 0 m));
          on_stats k acc)
        ks)
    queries

(* The first (up to) 10 rows, shifted off the grid, as queries. *)
let check_index_parity_built idx fm k =
  let n = Featmat.length fm in
  let queries =
    Array.init (Stdlib.min 10 n) (fun q -> Featmat.row fm q |> Array.map (fun x -> x +. 0.125))
  in
  check_index_queries idx fm queries [ k ]

let check_index_parity ?n_clusters fm k =
  let idx =
    match n_clusters with
    | None -> Knn_index.build fm
    | Some c -> Knn_index.build ~n_clusters:c fm
  in
  check_index_parity_built idx fm k

let knn_index_tests =
  [
    Alcotest.test_case "overlapping blobs: bounds barely prune, every k exact" `Quick
      (fun () ->
        (* The streaming calibration geometry: 4 overlapping 16-d blobs
           (sigma 1.5 around means in [-1.5, 1.5]) at the default
           cluster count. Cluster bounds skip under 1% of the rows, so
           exactness rests on the row filter and the cut back to k. *)
        let n = 4096 and dim = 16 in
        let rng = Rng.create 11 in
        let means =
          Array.init 4 (fun _ -> Array.init dim (fun _ -> Rng.uniform rng ~lo:(-1.5) ~hi:1.5))
        in
        let sample i =
          Array.init dim (fun j -> means.(i mod 4).(j) +. Rng.gaussian rng ~mu:0.0 ~sigma:1.5)
        in
        let fm = Featmat.of_rows (Array.init n sample) in
        let idx = Knn_index.build fm in
        let queries = Array.init 100 sample in
        let ks = [ 1; 41; 2048; 4095; 4096 ] in
        let pruned = Hashtbl.create 8 in
        let on_stats k (a : Knn_index.acc) =
          Alcotest.(check int) "every row scanned or pruned" n (a.ac_scanned + a.ac_rows_pruned);
          Hashtbl.replace pruned k
            (a.ac_rows_pruned + Option.value ~default:0 (Hashtbl.find_opt pruned k))
        in
        check_index_queries ~on_stats idx fm queries ks;
        (* The regime under test: at every k the index computes more
           than 99% of all distances (pruned fraction below 0.01), and
           near k = n it computes every one. *)
        List.iter
          (fun k ->
            let p = Hashtbl.find pruned k in
            Alcotest.(check bool)
              (Printf.sprintf "k=%d pruned fraction below 0.01 (%d rows)" k p)
              true
              (100 * p < Array.length queries * n);
            if k >= n - 1 then Alcotest.(check int) "nothing pruned near k = n" 0 p)
          ks);
    Alcotest.test_case "duplicated rows: ties straddle the running threshold" `Quick (fun () ->
        (* 512 integer-grid rows, each stored 8x with ids spread across
           the matrix: equal distances abound within and across
           clusters, so rows tying the k-th distance keep arriving after
           the filter threshold is set. Some queries coincide with a
           duplicated row, putting the k-th tie at 0.0 for k <= 8. *)
        let base_n = 512 and dim = 4 in
        let rng = Rng.create 12 in
        let base =
          Array.init base_n (fun _ -> Array.init dim (fun _ -> float_of_int (Rng.int rng 7 - 3)))
        in
        let fm = Featmat.of_rows (Array.init (8 * base_n) (fun i -> base.(i mod base_n))) in
        let queries =
          Array.init 40 (fun i ->
              if i mod 2 = 0 then Array.copy base.(Rng.int rng base_n)
              else Array.init dim (fun _ -> 0.5 *. float_of_int (Rng.int rng 13 - 6)))
        in
        List.iter
          (fun n_clusters ->
            let idx = Knn_index.build ~n_clusters fm in
            check_index_queries idx fm queries [ 1; 3; 8; 9; 41; 300; 4096 ])
          [ 16; 64; 512 ]);
    Alcotest.test_case "query matches the scan on clustered data" `Quick (fun () ->
        let rows =
          Array.init 120 (fun i ->
              let c = float_of_int (i mod 4) *. 25.0 in
              [| c +. (0.1 *. float_of_int i); c -. (0.05 *. float_of_int (i mod 11)) |])
        in
        let fm = Featmat.of_rows rows in
        List.iter (fun k -> check_index_parity fm k) [ 1; 5; 60; 120 ]);
    Alcotest.test_case "duplicate rows keep index tie-break" `Quick (fun () ->
        let rows = Array.init 40 (fun i -> [| float_of_int (i mod 3); 0.0 |]) in
        let fm = Featmat.of_rows rows in
        List.iter (fun k -> check_index_parity fm k) [ 1; 7; 40 ]);
    Alcotest.test_case "all-identical rows (zero radii)" `Quick (fun () ->
        let fm = Featmat.of_rows (Array.make 25 [| 2.0; -1.0; 0.5 |]) in
        List.iter (fun k -> check_index_parity fm k) [ 1; 5; 25 ]);
    Alcotest.test_case "one cluster and n clusters both exact" `Quick (fun () ->
        let rows = Array.init 33 (fun i -> [| sin (float_of_int i); cos (float_of_int i) |]) in
        let fm = Featmat.of_rows rows in
        check_index_parity ~n_clusters:1 fm 6;
        check_index_parity ~n_clusters:33 fm 6);
    Alcotest.test_case "queries actually prune on separated clusters" `Quick (fun () ->
        let rows =
          Array.init 400 (fun i ->
              let c = float_of_int (i mod 8) *. 1000.0 in
              [| c +. (0.01 *. float_of_int i); c |])
        in
        let fm = Featmat.of_rows rows in
        let idx = Knn_index.build fm in
        let acc = Knn_index.acc_create () in
        let gi = Array.make 3 0 and gv = Array.make 3 0.0 in
        ignore (Knn_index.query_into ~stats:acc idx fm (Featmat.row fm 0) ~k:3 ~idxs:gi ~vals:gv ~off:0);
        Alcotest.(check bool) "rows pruned" true (acc.Knn_index.ac_rows_pruned > 0);
        Alcotest.(check bool) "clusters pruned" true (acc.Knn_index.ac_clusters_pruned > 0);
        let st = Knn_index.stats idx in
        Alcotest.(check int) "queries counted" 1 st.Knn_index.st_queries;
        Alcotest.(check int) "scanned consistent" st.Knn_index.st_scanned acc.Knn_index.ac_scanned);
    Alcotest.test_case "insert_batch stays exact and rebuilds on growth" `Quick (fun () ->
        let base = Array.init 60 (fun i -> [| float_of_int (i mod 5) *. 10.0; float_of_int i |]) in
        let fm = Featmat.of_rows base in
        let idx = Knn_index.build fm in
        (* small append: incremental, no rebuild *)
        let extra1 = Array.init 5 (fun i -> [| 3.0; float_of_int (100 + i) |]) in
        let fm1 = Featmat.append fm extra1 in
        let idx1, rebuilt1 = Knn_index.insert_batch idx fm1 ~from_row:60 in
        Alcotest.(check bool) "no rebuild" false rebuilt1;
        Alcotest.(check int) "inserted tracked" 5 (Knn_index.inserted_since_build idx1);
        check_index_parity_built idx1 fm1 7;
        (* large append: crosses the half-growth policy, rebuilds *)
        let extra2 = Array.init 80 (fun i -> [| 47.0; float_of_int (200 + i) |]) in
        let fm2 = Featmat.append fm1 extra2 in
        let idx2, rebuilt2 = Knn_index.insert_batch idx1 fm2 ~from_row:65 in
        Alcotest.(check bool) "rebuilt" true rebuilt2;
        Alcotest.(check int) "reset" 0 (Knn_index.inserted_since_build idx2);
        check_index_parity_built idx2 fm2 7);
    Alcotest.test_case "insert_batch rejects a mismatched from_row" `Quick (fun () ->
        let fm = Featmat.of_rows (Array.init 10 (fun i -> [| float_of_int i |])) in
        let idx = Knn_index.build fm in
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Knn_index.insert_batch: from_row mismatch") (fun () ->
            ignore (Knn_index.insert_batch idx fm ~from_row:3)));
    Alcotest.test_case "export/import round-trips bit-exactly" `Quick (fun () ->
        let rows = Array.init 90 (fun i -> [| float_of_int (i mod 6) *. 7.0; sin (float_of_int i) |]) in
        let fm = Featmat.of_rows rows in
        let idx = Knn_index.build fm in
        let e = Knn_index.export idx in
        let idx' = Knn_index.import e in
        Alcotest.(check int) "clusters" (Knn_index.clusters idx) (Knn_index.clusters idx');
        Alcotest.(check bool) "export equal" true (Knn_index.export idx' = e);
        check_index_parity_built idx' fm 9);
    Alcotest.test_case "import rejects corrupt structure" `Quick (fun () ->
        let fm = Featmat.of_rows (Array.init 12 (fun i -> [| float_of_int i |])) in
        let e = Knn_index.export (Knn_index.build fm) in
        let dup = { e with Knn_index.ex_members = Array.make e.Knn_index.ex_n 0 } in
        Alcotest.check_raises "members"
          (Invalid_argument "Knn_index.import: members not a permutation") (fun () ->
            ignore (Knn_index.import dup));
        let bad_r = { e with Knn_index.ex_radii = Array.map (fun _ -> nan) e.Knn_index.ex_radii } in
        Alcotest.check_raises "radius" (Invalid_argument "Knn_index.import: invalid radius")
          (fun () -> ignore (Knn_index.import bad_r)));
    Alcotest.test_case "build rejects empty matrix" `Quick (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Knn_index.build: empty matrix")
          (fun () -> ignore (Knn_index.build (Featmat.of_rows [||]))));
  ]

(* Property-based tests. *)
let float_array = QCheck2.Gen.(array_size (int_range 1 20) (float_range (-100.0) 100.0))

(* Keys drawn from a small set force heavy duplication, exercising the
   tie-break paths of the quickselect and the heap. *)
let dup_keys =
  QCheck2.Gen.(array_size (int_range 0 60) (map float_of_int (int_range 0 5)))

let prop_smallest_k =
  QCheck2.Test.make ~name:"smallest_k equals the sort-based reference" ~count:300
    QCheck2.Gen.(pair dup_keys (int_range 0 70))
    (fun (xs, k) -> Select.smallest_k xs k = topk_reference xs k)

let prop_heap_topk =
  QCheck2.Test.make ~name:"streaming heap equals the sort-based reference" ~count:300
    QCheck2.Gen.(pair dup_keys (int_range 0 70))
    (fun (xs, k) ->
      let h = Select.heap_create (Stdlib.min k (Array.length xs)) in
      Array.iteri (fun i v -> Select.offer h v i) xs;
      Array.map fst (Select.drain_sorted h) = topk_reference xs k)

(* Keys that stress the radix engine: a few distinct values (long
   equal runs), ulp neighbours sharing their high 32 bits (fix-up runs),
   signed zeros, subnormals and extremes, and ordinary spreads of both
   signs. Sizes straddle the insertion-sort cutoff and reach past one
   digit bucket per key. *)
let radix_keys =
  let open QCheck2.Gen in
  let ulps base j =
    let x = ref base in
    for _ = 1 to j do
      x := Float.succ !x
    done;
    !x
  in
  let edges =
    [|
      0.0; -0.0; Float.min_float; -.Float.min_float; Int64.float_of_bits 1L;
      -.Int64.float_of_bits 1L; Int64.float_of_bits 0xF_FFFFL; 1e300; -1e300;
      Float.max_float; infinity; neg_infinity;
    |]
  in
  let family =
    oneofl
      [
        map float_of_int (int_range 0 5);
        map2 ulps (oneofl [ 1.5; -2.25; 1e-310; 37.0 ]) (int_range 0 7);
        oneofa edges;
        float_range (-1e3) 1e3;
      ]
  in
  oneof [ int_range 0 130; int_range 0 5000 ] >>= fun n ->
  list_size (int_range 1 3) family >>= fun fams ->
  array_size (return n) (oneofl fams >>= Fun.id)

let radix_case = QCheck2.Gen.(radix_keys >>= fun xs -> pair (return xs) (int_range 0 (Array.length xs)))

let radix_scratch = Select.scratch_create ()

let prop_select_in_place_radix =
  QCheck2.Test.make ~name:"select_in_place equals the reference across the radix cutoff"
    ~count:150 radix_case (fun (xs, k) -> select_matches radix_scratch xs k)

let prop_smallest_k_radix =
  QCheck2.Test.make ~name:"smallest_k(_pairs) equal the reference across the radix cutoff"
    ~count:100 radix_case (fun (xs, k) ->
      let expect = topk_reference xs k in
      Select.smallest_k xs k = expect
      && Array.for_all2
           (fun (i, v) j ->
             i = j && Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float xs.(j)))
           (Select.smallest_k_pairs xs k) expect)

let prop_select_nan_last =
  QCheck2.Test.make ~name:"select_in_place sorts every NaN last, in index order" ~count:60
    QCheck2.Gen.(
      radix_case >>= fun (xs, k) ->
      array_size (return (Array.length xs)) (oneofl [ None; None; None; Some nan; Some (-.nan) ])
      >|= fun holes ->
      (Array.map2 (fun x h -> Option.value h ~default:x) xs holes, k))
    (fun (xs, k) -> select_matches ~reference:topk_reference_nan_last radix_scratch xs k)

let prop_triangle =
  QCheck2.Test.make ~name:"euclidean satisfies triangle inequality" ~count:200
    QCheck2.Gen.(
      triple (array_size (return 4) (float_range (-50.) 50.))
        (array_size (return 4) (float_range (-50.) 50.))
        (array_size (return 4) (float_range (-50.) 50.)))
    (fun (a, b, c) ->
      Distance.euclidean a c <= Distance.euclidean a b +. Distance.euclidean b c +. 1e-9)

let prop_softmax =
  QCheck2.Test.make ~name:"softmax sums to 1 and is positive" ~count:200 float_array
    (fun a ->
      let p = Prom_linalg.Vec.softmax a in
      abs_float (Prom_linalg.Vec.sum p -. 1.0) < 1e-9 && Array.for_all (fun x -> x >= 0.0) p)

let prop_quantile_monotone =
  QCheck2.Test.make ~name:"quantiles are monotone" ~count:200 float_array (fun a ->
      Stats.quantile a 0.25 <= Stats.quantile a 0.75)

let prop_mean_bounds =
  QCheck2.Test.make ~name:"mean lies within min and max" ~count:200 float_array (fun a ->
      let m = Stats.mean a in
      let lo = Array.fold_left min a.(0) a and hi = Array.fold_left max a.(0) a in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

(* Random matrices covering every unroll remainder (dim mod 4, including
   dim < 4) plus the row-tile boundary, with query counts crossing the
   block kernel's tile loop. The distance kernels promise *exact* float
   equality with the naive scalar reference — the bit-identity the
   shared-scan pipeline rests on — so the properties compare with [=],
   not a tolerance. *)
let matrix_gen =
  QCheck2.Gen.(
    int_range 1 24 >>= fun dim ->
    int_range 1 40 >>= fun n ->
    array_size (return n) (array_size (return dim) (float_range (-50.0) 50.0)))

let queries_gen rows nq =
  let dim = Array.length rows.(0) in
  QCheck2.Gen.(array_size (int_range 1 nq) (array_size (return dim) (float_range (-50.0) 50.0)))

let prop_sq_dist_row_exact =
  QCheck2.Test.make ~name:"unrolled sq_dist_row bit-equals the scalar reference" ~count:200
    QCheck2.Gen.(matrix_gen >>= fun rows -> pair (return rows) (queries_gen rows 1))
    (fun (rows, qs) ->
      let fm = Featmat.of_rows rows in
      let v = qs.(0) in
      Array.for_all
        (fun i -> Featmat.sq_dist_row fm i v = Distance.sq_euclidean rows.(i) v)
        (Array.init (Array.length rows) Fun.id))

let prop_sq_dists_block_exact =
  QCheck2.Test.make ~name:"sq_dists_block bit-equals independent row scans" ~count:200
    QCheck2.Gen.(matrix_gen >>= fun rows -> pair (return rows) (queries_gen rows 9))
    (fun (rows, qs) ->
      let fm = Featmat.of_rows rows in
      let n = Array.length rows in
      let out = Array.make (Array.length qs * n) nan in
      Featmat.sq_dists_block fm qs out;
      Array.for_all
        (fun q ->
          Array.for_all
            (fun i -> out.((q * n) + i) = Featmat.sq_dist_row fm i qs.(q))
            (Array.init n Fun.id))
        (Array.init (Array.length qs) Fun.id))

let prop_sq_dists_rows_block_exact =
  QCheck2.Test.make ~name:"sq_dists_rows_block bit-equals sq_dist_rows" ~count:200
    QCheck2.Gen.(
      matrix_gen >>= fun rows ->
      let n = Array.length rows in
      int_range 0 (n - 1) >>= fun r0 ->
      int_range r0 n >>= fun r1 -> return (rows, r0, r1))
    (fun (rows, r0, r1) ->
      let fm = Featmat.of_rows rows in
      let n = Array.length rows in
      let out = Array.make (Stdlib.max 1 ((r1 - r0) * n)) nan in
      Featmat.sq_dists_rows_block fm ~r0 ~r1 out;
      Array.for_all
        (fun q ->
          Array.for_all
            (fun i -> out.((q * n) + i) = Featmat.sq_dist_rows fm (r0 + q) i)
            (Array.init n Fun.id))
        (Array.init (r1 - r0) Fun.id))

(* Cross-backend bit-identity of the native distance kernels. All
   backends follow the same 4-lane accumulation-order contract, so
   their outputs must be the *same bits* on every input — NaN and
   infinity included (where [=] would reject NaN = NaN, so the
   comparison goes through [Int64.bits_of_float]). Dimensions cover
   every unroll remainder (dim mod 4, including dim < 4) and row
   ranges cover the chunked-stub boundary offsets. *)
let fbits = Int64.bits_of_float

(* Exact bit equality, except that any NaN matches any NaN.  When both
   operands of an accumulator add are NaN (a NaN row element and an
   inf-minus-inf difference landing in the same lane), the hardware
   keeps the first operand's payload — but C compilers may commute the
   add, so which payload survives is not pinned by any portable
   construction.  NaN-ness and NaN positions are still exact; only the
   payload bits of a NaN result are exempt. *)
let kernel_bit_eq x y = fbits x = fbits y || (x <> x && y <> y)

let kernel_value_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, float_range (-50.0) 50.0);
        (1, oneofl [ nan; infinity; neg_infinity; 0.0; -0.0; 1e300; 1e-300 ]);
      ])

let prop_kernel_backends_bit_identical =
  QCheck2.Test.make ~name:"kernel backends bit-identical across OCaml/C/SIMD" ~count:300
    QCheck2.Gen.(
      int_range 1 25 >>= fun dim ->
      int_range 1 30 >>= fun n ->
      array_size (return (n * dim)) kernel_value_gen >>= fun data ->
      array_size (return dim) kernel_value_gen >>= fun q ->
      int_range 0 (n - 1) >>= fun r0 ->
      int_range r0 n >>= fun r1 -> return (dim, n, data, q, r0, r1))
    (fun (dim, n, data, q, r0, r1) ->
      let backends =
        List.filter Kernels.available [ Kernels.Ocaml; Kernels.C; Kernels.Simd ]
      in
      let seg_ok =
        Array.for_all
          (fun i ->
            let want = Kernels.sq_dist_segs_with Kernels.Ocaml data (i * dim) q 0 dim in
            List.for_all
              (fun b ->
                kernel_bit_eq (Kernels.sq_dist_segs_with b data (i * dim) q 0 dim) want)
              backends)
          (Array.init n Fun.id)
      in
      let len = Stdlib.max 1 (r1 - r0) in
      let want = Array.make len nan in
      Kernels.sq_dists_range_with Kernels.Ocaml ~data ~dim ~r0 ~r1 ~q ~oq:0 ~out:want
        ~off:0;
      let range_ok =
        List.for_all
          (fun b ->
            let out = Array.make len nan in
            Kernels.sq_dists_range_with b ~data ~dim ~r0 ~r1 ~q ~oq:0 ~out ~off:0;
            Array.for_all2 kernel_bit_eq out want)
          backends
      in
      seg_ok && range_ok)

(* Row generators biased towards duplicates and tight clusters: integer
   coordinates from a small range make exact ties and zero-radius
   clusters common, the cases where pruning correctness is subtle. One
   case in four is large (n up to 600) so that, with a small k, the
   candidate list is cut back to k several times per query. *)
let index_matrix_gen =
  QCheck2.Gen.(
    int_range 1 6 >>= fun dim ->
    frequency [ (3, int_range 1 150); (1, int_range 300 600) ] >>= fun n ->
    array_size (return n) (array_size (return dim) (map float_of_int (int_range (-4) 4))))

(* Queries either anywhere in the box or on the half-integer lattice,
   where distinct integer rows tie at the same distance across clusters. *)
let index_query_gen dim =
  QCheck2.Gen.(
    oneof
      [
        array_size (return dim) (float_range (-5.0) 5.0);
        array_size (return dim) (map (fun i -> 0.5 *. float_of_int i) (int_range (-10) 10));
      ])

let prop_knn_index_parity =
  QCheck2.Test.make ~name:"Knn_index.query_into bit-equals the full scan" ~count:150
    QCheck2.Gen.(
      index_matrix_gen >>= fun rows ->
      let n = Array.length rows and dim = Array.length rows.(0) in
      oneof [ int_range 1 (n + 3); int_range 1 (Stdlib.max 1 (n / 8)) ] >>= fun k ->
      int_range 1 (n + 2) >>= fun nc ->
      index_query_gen dim >>= fun q ->
      return (rows, k, nc, q))
    (fun (rows, k, nc, q) ->
      let fm = Featmat.of_rows rows in
      let idx = Knn_index.build ~n_clusters:nc fm in
      let cap = Stdlib.max 1 k in
      let gi = Array.make cap (-1) and gv = Array.make cap nan in
      let m = Knn_index.query_into idx fm q ~k ~idxs:gi ~vals:gv ~off:0 in
      let want_i, want_v = knn_reference fm q k in
      m = Array.length want_i
      && Array.sub gi 0 m = want_i
      && Array.sub gv 0 m = want_v)

let prop_knn_index_insert_parity =
  QCheck2.Test.make ~name:"Knn_index stays exact after insert_batch" ~count:100
    QCheck2.Gen.(
      index_matrix_gen >>= fun rows ->
      let n = Array.length rows and dim = Array.length rows.(0) in
      int_range 1 (Stdlib.max 1 (n / 2)) >>= fun extra ->
      array_size (return extra) (array_size (return dim) (map float_of_int (int_range (-4) 4)))
      >>= fun added ->
      int_range 1 8 >>= fun k ->
      array_size (return dim) (float_range (-5.0) 5.0) >>= fun q ->
      return (rows, added, k, q))
    (fun (rows, added, k, q) ->
      let fm = Featmat.of_rows rows in
      let idx = Knn_index.build fm in
      let fm' = Featmat.append fm added in
      let idx', _rebuilt = Knn_index.insert_batch idx fm' ~from_row:(Array.length rows) in
      let cap = Stdlib.max 1 k in
      let gi = Array.make cap (-1) and gv = Array.make cap nan in
      let m = Knn_index.query_into idx' fm' q ~k ~idxs:gi ~vals:gv ~off:0 in
      let want_i, want_v = knn_reference fm' q k in
      m = Array.length want_i
      && Array.sub gi 0 m = want_i
      && Array.sub gv 0 m = want_v)

let prop_solve =
  QCheck2.Test.make ~name:"Mat.solve solves well-conditioned systems" ~count:100
    QCheck2.Gen.(array_size (return 3) (float_range (-5.0) 5.0))
    (fun x ->
      (* Diagonally dominant matrix: always solvable. *)
      let a =
        Mat.init ~rows:3 ~cols:3 (fun i j ->
            if i = j then 10.0 else float_of_int ((i + j) mod 3))
      in
      let b = Mat.matvec a x in
      let got = Mat.solve a b in
      Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-6) x got)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_triangle; prop_softmax; prop_quantile_monotone; prop_mean_bounds; prop_solve;
      prop_smallest_k; prop_heap_topk; prop_select_in_place_radix; prop_smallest_k_radix;
      prop_select_nan_last; prop_sq_dist_row_exact; prop_sq_dists_block_exact;
      prop_sq_dists_rows_block_exact; prop_kernel_backends_bit_identical;
      prop_knn_index_parity; prop_knn_index_insert_parity;
    ]

let suite =
  [
    ("linalg.rng", rng_tests);
    ("linalg.vec", vec_tests);
    ("linalg.mat", mat_tests);
    ("linalg.stats", stats_tests);
    ("linalg.distance", distance_tests);
    ("linalg.select", select_tests);
    ("linalg.featmat", featmat_tests);
    ("linalg.knn_index", knn_index_tests);
    ("linalg.properties", properties);
  ]
