(* Measurement helpers shared by every workload: the clock, sample
   buffers, order statistics, and the in-memory span tracer of the
   traced run. *)

let now = Unix.gettimeofday

(* Sleep until [t], spinning for the last 0.5 ms so an open-loop
   generator wakes close to a due time instead of a scheduler tick
   after it. Spinning the whole wait keeps a virtual CPU busy, which on
   a shared host costs more jitter than it saves. *)
let sleep_until t =
  let rec go () =
    let dt = t -. now () in
    if dt > 6e-4 then begin
      Unix.sleepf (dt -. 5e-4);
      go ()
    end
    else if dt > 0.0 then go ()
  in
  go ()

(* A growable float buffer: phases record one sample per operation
   without knowing their count in advance. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* Nearest-rank quantile of an unsorted sample; [infinity] entries
   (failed or refused operations) sort last, so they count as missing
   every latency limit. *)
let quantile a p =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let r = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) r))
  end

let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Closed loop: call [f i] back to back for [seconds], one latency
   sample per call. Returns the latencies and the elapsed wall time. *)
let closed_loop ~seconds f =
  let lat = Samples.create () in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let i = ref 0 in
  let t = ref t_start in
  while !t < deadline do
    let t0 = !t in
    f !i;
    let t1 = now () in
    Samples.add lat (t1 -. t0);
    incr i;
    t := t1
  done;
  (Samples.to_array lat, !t -. t_start)

(* Exponential inter-arrival gaps of a Poisson schedule at [rate]/s,
   drawn from the workload seed. *)
let poisson_gap rng rate =
  let u = Prom_linalg.Rng.float rng 1.0 in
  -.log (1.0 -. u) /. rate

(* {2 Spans}

   A span is one timed call into a layer: name, start, end, the span
   that caused it (-1 for a root) and the request it belongs to. Spans
   are kept in memory and written out as JSON lines at exit. *)

type span = {
  name : string;
  t0 : float;
  mutable t1 : float;
  parent : int;
  req : int;
}

type tracer = { mutable spans : span array; mutable n : int }

let tracer () =
  { spans = Array.make 4096 { name = ""; t0 = 0.; t1 = 0.; parent = -1; req = 0 }; n = 0 }

let push tr s =
  if tr.n = Array.length tr.spans then begin
    let d = Array.make (2 * tr.n) s in
    Array.blit tr.spans 0 d 0 tr.n;
    tr.spans <- d
  end;
  tr.spans.(tr.n) <- s;
  tr.n <- tr.n + 1;
  tr.n - 1

(* [span tr ~name ~parent ~req f] times [f id], where [id] is the new
   span's id (the parent of any span [f] opens). *)
let span tr ~name ~parent ~req f =
  let id = push tr { name; t0 = now (); t1 = nan; parent; req } in
  let v = f id in
  tr.spans.(id).t1 <- now ();
  v

let dur s = s.t1 -. s.t0

(* Per span name: the mean duration, and the mean self time — duration
   minus the time its direct children cover. Children of one parent run
   sequentially here, so their durations add without overlap. *)
let summary tr =
  let child = Array.make tr.n 0.0 in
  for i = 0 to tr.n - 1 do
    let s = tr.spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur s
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to tr.n - 1 do
    let s = tr.spans.(i) in
    let c, d, self =
      Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0)
    in
    Hashtbl.replace tbl s.name (c + 1, d +. dur s, self +. dur s -. child.(i))
  done;
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some (c, d, self) -> (d /. float_of_int c, self /. float_of_int c)
    | None -> (0.0, 0.0)

let write_spans tr path =
  let oc = open_out path in
  for i = 0 to tr.n - 1 do
    let s = tr.spans.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"req\":%d}\n" i
      s.name s.t0 s.t1 s.parent s.req
  done;
  close_out oc

(* Cumulative CPU time the hypervisor gave to other guests ("steal"),
   over all CPUs, in seconds (USER_HZ = 100). *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> nan
  | ic ->
      let l = input_line ic in
      close_in ic;
      (match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: st :: _ -> float_of_string st /. 100.0
      | _ -> nan)

(* Peak resident set of a process, from /proc (VmHWM, in MiB). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v
