(* Backend selection and dispatch for the squared-distance kernels.

   Three interchangeable implementations of one numeric contract: a
   pure-OCaml reference, a portable scalar C build and a SIMD build
   (SSE2/AVX2, picked by runtime CPU probe).  All follow the 4-lane
   accumulation order documented in kernels.mli, so their outputs are
   bit-identical and the backend choice is invisible to every consumer
   except the clock. *)

type backend = Ocaml | C | Simd

let backend_name = function Ocaml -> "ocaml" | C -> "c" | Simd -> "simd"

(* Implementation levels shared with featmat_stubs.c. *)
let impl_scalar = 0

external probe_stub : unit -> (int[@untagged]) = "prom_kernels_probe_byte" "prom_kernels_probe"
[@@noalloc]

(* Best SIMD level the host can run: 0 none, 1 SSE2, 2 AVX2.  Probed
   once; the CPU does not change under us. *)
let simd_level = probe_stub ()

let available = function Ocaml | C -> true | Simd -> simd_level > impl_scalar

let isa_name = function
  | Ocaml -> "ocaml"
  | C -> "scalar"
  | Simd -> if simd_level >= 2 then "avx2" else if simd_level >= 1 then "sse2" else "none"

(* Startup selection: PROM_KERNELS={simd,c,ocaml} overrides; the
   default is the best available backend.  [simd] on a host without
   SIMD support degrades to the scalar C build (same results). *)
let resolve () =
  match Sys.getenv_opt "PROM_KERNELS" with
  | Some "ocaml" -> Ocaml
  | Some "c" -> C
  | Some "simd" -> if available Simd then Simd else C
  | Some other -> invalid_arg ("PROM_KERNELS: unknown backend " ^ other)
  | None -> if available Simd then Simd else C

(* Resolved on first use, not at module load, so a bad PROM_KERNELS
   fails the first kernel call.  An atomic cache rather than a [Lazy.t]:
   a lazy forced by two domains at once raises [CamlinternalLazy.Undefined]
   in one of them, while domains racing here each run [resolve] — a pure
   function of the environment and the CPU probe — and agree. *)
let resolved : backend option Atomic.t = Atomic.make None

let active () =
  match Atomic.get resolved with
  | Some b -> b
  | None ->
      let b = resolve () in
      Atomic.set resolved (Some b);
      b

let active_name () = backend_name (active ())
let active_isa () = isa_name (active ())

external sq_dist_seg_stub :
  float array ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) = "prom_sq_dist_seg_byte" "prom_sq_dist_seg"
[@@noalloc]

external sq_dists_range_stub :
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "prom_sq_dists_range_byte" "prom_sq_dists_range"
[@@noalloc]

let impl_of = function
  | Ocaml -> invalid_arg "Kernels.impl_of: ocaml backend has no C impl"
  | C -> impl_scalar
  | Simd -> if simd_level > impl_scalar then simd_level else impl_scalar

(* Pure-OCaml reference kernel.  Element [j] accumulates into lane
   [j mod 4]; the unrolled body peels four lanes per iteration and the
   tail continues the same lane pattern, so the accumulation sequence
   is identical to the C and SIMD builds.  The final reduction is
   (l0 + l2) + (l1 + l3) — the order a 2x128-bit vertical add followed
   by a horizontal add produces.  Bounds are the caller's
   responsibility, so the reads are unsafe. *)
let sq_dist_segs_ocaml a oa b ob dim =
  let l0 = ref 0.0 and l1 = ref 0.0 and l2 = ref 0.0 and l3 = ref 0.0 in
  let j = ref 0 in
  while !j + 4 <= dim do
    let j0 = !j in
    let d0 = Array.unsafe_get a (oa + j0) -. Array.unsafe_get b (ob + j0) in
    let d1 = Array.unsafe_get a (oa + j0 + 1) -. Array.unsafe_get b (ob + j0 + 1) in
    let d2 = Array.unsafe_get a (oa + j0 + 2) -. Array.unsafe_get b (ob + j0 + 2) in
    let d3 = Array.unsafe_get a (oa + j0 + 3) -. Array.unsafe_get b (ob + j0 + 3) in
    l0 := !l0 +. (d0 *. d0);
    l1 := !l1 +. (d1 *. d1);
    l2 := !l2 +. (d2 *. d2);
    l3 := !l3 +. (d3 *. d3);
    j := j0 + 4
  done;
  while !j < dim do
    let j0 = !j in
    let d = Array.unsafe_get a (oa + j0) -. Array.unsafe_get b (ob + j0) in
    (match j0 land 3 with
    | 0 -> l0 := !l0 +. (d *. d)
    | 1 -> l1 := !l1 +. (d *. d)
    | 2 -> l2 := !l2 +. (d *. d)
    | _ -> l3 := !l3 +. (d *. d));
    incr j
  done;
  (!l0 +. !l2) +. (!l1 +. !l3)

let sq_dist_segs_with backend a oa b ob dim =
  match backend with
  | Ocaml -> sq_dist_segs_ocaml a oa b ob dim
  | C -> sq_dist_seg_stub a oa b ob dim impl_scalar
  | Simd -> sq_dist_seg_stub a oa b ob dim (impl_of Simd)

(* Rows per native range call: caps one FFI call at ~256 KB of row data
   so a long scan still reaches OCaml safepoints often enough for other
   domains' stop-the-world GC handshakes. *)
let rows_per_call dim = Stdlib.max 1 (32768 / Stdlib.max 1 dim)

let sq_dists_range_with backend ~data ~dim ~r0 ~r1 ~q ~oq ~out ~off =
  if dim < 0 || r0 < 0 || r1 < r0 then invalid_arg "Kernels.sq_dists_range: bad range";
  if r1 * dim > Array.length data then invalid_arg "Kernels.sq_dists_range: data too small";
  if oq < 0 || oq + dim > Array.length q then invalid_arg "Kernels.sq_dists_range: bad query";
  if off < 0 || off + (r1 - r0) > Array.length out then
    invalid_arg "Kernels.sq_dists_range: output too small";
  match backend with
  | Ocaml ->
      for i = r0 to r1 - 1 do
        Array.unsafe_set out (off + i - r0) (sq_dist_segs_ocaml data (i * dim) q oq dim)
      done
  | C | Simd ->
      let impl = impl_of backend in
      let chunk = rows_per_call dim in
      let i0 = ref r0 in
      while !i0 < r1 do
        let i1 = Stdlib.min r1 (!i0 + chunk) in
        sq_dists_range_stub data dim !i0 i1 q oq out (off + !i0 - r0) impl;
        i0 := i1
      done

let sq_dist_segs a oa b ob dim = sq_dist_segs_with (active ()) a oa b ob dim

let sq_dists_range ~data ~dim ~r0 ~r1 ~q ~oq ~out ~off =
  sq_dists_range_with (active ()) ~data ~dim ~r0 ~r1 ~q ~oq ~out ~off
