(* The [http] workload's two halves: the server role (a child process
   running [Prom_server.Server] with the seeded tenants) and the
   open-loop client that drives it.

   The client is one thread with two pipelined keep-alive connections,
   one per tenant. Requests go out on a seeded Poisson schedule whether
   or not earlier ones were answered; latency runs from each request's
   due time. Responses are framed without blocking (the library's
   [Http.read_response] blocks), and every verdict is compared bit for
   bit with the direct [Service.evaluate_batch] answer. *)

open Prom
module Http = Prom_server.Http
module J = Prom_jsonx

let tenant_n = 600
let tenant_names = [| "hot"; "cold" |]

(* The tenants' worlds; the server child and the client derive the same
   calibration sets from the same seed. *)
let tenant_worlds ~seed =
  [| World.make ~seed (); World.make ~task:1 ~seed:(seed + 7919) () |]

(* {2 Server role} *)

let serve ~seed =
  (* See the same call in [Main]: the lazy kernel backend must be
     forced before a pool runs. *)
  ignore (Prom_linalg.Kernels.active ());
  let tenants = Tenant.create () in
  let svcs =
    Array.mapi
      (fun i w ->
        let s = Service.create (World.calibration w tenant_n) in
        ignore (Tenant.register ~service:s tenants tenant_names.(i));
        s)
      (tenant_worlds ~seed)
  in
  let srv = Prom_server.Server.start ~tenants svcs.(0) in
  Printf.printf "%d\n%!" (Prom_server.Server.port srv);
  (try
     while true do
       ignore (input_line stdin)
     done
   with End_of_file -> ());
  Prom_server.Server.stop srv

(* {2 Child lifecycle} *)

type child = { pid : int; port : int; ctl : Unix.file_descr }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let get ~port path =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Http.write_request fd ~meth:"GET" ~path "";
      match Http.read_response (Http.reader fd) with
      | Ok r -> r
      | Error _ -> failwith ("GET " ^ path ^ " failed"))

(* Spawn the server role and wait until every tenant's healthz answers
   200. Returns the child and the seconds this took. *)
let spawn ~seed =
  let t0 = Tr.now () in
  let ctl_r, ctl = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--role"; "server"; "--seed"; string_of_int seed |]
      ctl_r out_w Unix.stderr
  in
  Unix.close ctl_r;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let port = int_of_string (input_line ic) in
  close_in ic;
  Array.iter
    (fun name ->
      let rec wait () =
        if (get ~port ("/t/" ^ name ^ "/healthz")).Http.status <> 200 then begin
          Unix.sleepf 0.001;
          wait ()
        end
      in
      wait ())
    tenant_names;
  ({ pid; port; ctl }, Tr.now () -. t0)

(* Closing the control pipe tells the child to drain and exit; it is
   killed if it has not exited within 10 s. *)
let stop c =
  Unix.close c.ctl;
  let deadline = Tr.now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when Tr.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill c.pid Sys.sigkill;
        ignore (Unix.waitpid [] c.pid)
    | _ -> ()
  in
  wait ()

let peak_rss_mb c = Tr.peak_rss_mb (string_of_int c.pid)

(* {2 Request bodies and expected answers} *)

(* One request body with the verdicts the direct path gives it. *)
type body = { wire : string; json : string; expect : Detector.cls_verdict array }

let vec v = J.Arr (Array.to_list (Array.map (fun x -> J.Num x) v))
let query_json (f, p) = J.Obj [ ("features", vec f); ("proba", vec p) ]

let make_body ~tenant svc qs =
  let json =
    J.to_string
      (if Array.length qs = 1 then query_json qs.(0)
       else J.Obj [ ("queries", J.Arr (Array.to_list (Array.map query_json qs))) ])
  in
  let wire =
    Printf.sprintf
      "POST /t/%s/predict HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
      tenant (String.length json) json
  in
  { wire; json; expect = Service.evaluate_batch svc qs }

(* The traffic mix: [hot] gets 3/4 of arrivals and a tenth of its
   requests are 16-query batches; [cold] sends single queries only. *)
type mix = { hot_single : body array; hot_batch : body array; cold_single : body array }

let make_mix (svcs : Service.t array) (qs : World.query array array) =
  let singles t =
    Array.map (fun q -> make_body ~tenant:tenant_names.(t) svcs.(t) [| q |])
      (Inproc.pairs (Array.sub qs.(t) 0 256))
  in
  let hot_batch =
    Array.map
      (fun b -> make_body ~tenant:"hot" svcs.(0) (Inproc.pairs b))
      (Inproc.batches (Array.sub qs.(0) 256 512) 16)
  in
  { hot_single = singles 0; hot_batch; cold_single = singles 1 }

(* Served verdicts must match the direct ones bit for bit. *)
let matches expect (j : J.t) =
  let one (v : Detector.cls_verdict) o =
    let num k = Option.bind (J.member k o) J.to_float in
    match (num "credibility", num "confidence", num "predicted", J.member "drifted" o) with
    | Some c, Some f, Some p, Some (J.Bool d) ->
        Inproc.same_float c v.mean_credibility && Inproc.same_float f v.mean_confidence
        && int_of_float p = v.predicted && d = v.drifted
    | _ -> false
  in
  match (Array.length expect, Option.bind (J.member "results" j) J.to_list) with
  | 1, None -> one expect.(0) j
  | n, Some l -> List.length l = n && List.for_all2 one (Array.to_list expect) l
  | _ -> false

(* {2 Connections} *)

type pending = { due : float; b : body; tenant : int }

type conn = {
  tenant_ix : int;
  mutable fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable inlen : int;
  out : Buffer.t;
  mutable outoff : int;
  q : pending Queue.t;
}

let open_conn port tenant_ix =
  let fd = connect port in
  Unix.set_nonblock fd;
  {
    tenant_ix;
    fd;
    inbuf = Bytes.create 65536;
    inlen = 0;
    out = Buffer.create 65536;
    outoff = 0;
    q = Queue.create ();
  }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let flush c =
  let len = Buffer.length c.out - c.outoff in
  if len > 0 then
    match Unix.write_substring c.fd (Buffer.contents c.out) c.outoff len with
    | n ->
        c.outoff <- c.outoff + n;
        if c.outoff = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.outoff <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let find_sub buf len pat from =
  let m = String.length pat in
  let rec go i =
    if i + m > len then -1
    else begin
      let k = ref 0 in
      while !k < m && Bytes.get buf (i + !k) = pat.[!k] do
        incr k
      done;
      if !k = m then i else go (i + 1)
    end
  in
  go from

(* Frame one complete response out of [c.inbuf], if there is one:
   [Some (status, body)]. *)
let take_response c =
  let h = find_sub c.inbuf c.inlen "\r\n\r\n" 0 in
  if h < 0 then None
  else begin
    let head = String.lowercase_ascii (Bytes.sub_string c.inbuf 0 h) in
    let status = int_of_string (String.sub head 9 3) in
    let cl =
      match find_sub (Bytes.of_string head) h "content-length:" 0 with
      | -1 -> 0
      | i ->
          let j = try String.index_from head i '\r' with Not_found -> h in
          int_of_string (String.trim (String.sub head (i + 15) (j - i - 15)))
    in
    let total = h + 4 + cl in
    if c.inlen < total then None
    else begin
      let body = Bytes.sub_string c.inbuf (h + 4) cl in
      Bytes.blit c.inbuf total c.inbuf 0 (c.inlen - total);
      c.inlen <- c.inlen - total;
      Some (status, body)
    end
  end

(* {2 One open-loop phase} *)

type phase = {
  lat : float array;  (** per request, seconds from due; [infinity] when failed *)
  cold_lat : float array;
  late : float array;  (** send time minus due time *)
  sent : int;
  failed : int;  (** non-200 answers and broken connections *)
  mismatched : int;  (** 200 answers whose verdicts differ from the direct path *)
}

type client = { port : int; mutable conns : conn array; mix : mix }

let client ~port mix = { port; conns = [||]; mix }
let close_client cl = Array.iter close_conn cl.conns

(* Every run opens fresh connections, so the windows of a phase sample
   several connections' TCP state instead of one. *)
let run cl ~rng ~rate ~seconds =
  close_client cl;
  cl.conns <- Array.init 2 (open_conn cl.port);
  let lat = Tr.Samples.create () and cold = Tr.Samples.create () in
  let late = Tr.Samples.create () in
  let failed = ref 0 and mismatched = ref 0 and sent = ref 0 in
  let record p v =
    Tr.Samples.add lat v;
    if p.tenant = 1 then Tr.Samples.add cold v
  in
  let fail_pending c =
    Queue.iter
      (fun p ->
        incr failed;
        record p infinity)
      c.q;
    Queue.clear c.q
  in
  let reconnect c =
    fail_pending c;
    close_conn c;
    let c' = open_conn cl.port c.tenant_ix in
    c.fd <- c'.fd;
    c.inlen <- 0;
    Buffer.clear c.out;
    c.outoff <- 0
  in
  let read c =
    match Unix.read c.fd c.inbuf c.inlen (Bytes.length c.inbuf - c.inlen) with
    | 0 -> reconnect c
    | n ->
        c.inlen <- c.inlen + n;
        if c.inlen = Bytes.length c.inbuf then begin
          let b = Bytes.create (2 * c.inlen) in
          Bytes.blit c.inbuf 0 b 0 c.inlen;
          c.inbuf <- b
        end;
        let rec drain () =
          match take_response c with
          | None -> ()
          | Some (status, body) ->
              let t = Tr.now () in
              (match Queue.take_opt c.q with
              | None -> incr failed
              | Some p ->
              if status <> 200 then begin
                incr failed;
                record p infinity
              end
              else begin
                (match J.parse body with
                | Ok j when matches p.b.expect j -> ()
                | _ -> incr mismatched);
                record p (t -. p.due)
              end);
              drain ()
        in
        drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> reconnect c
  in
  let pick () =
    if Prom_linalg.Rng.float rng 1.0 < 0.75 then
      let pool =
        if Prom_linalg.Rng.float rng 1.0 < 0.1 then cl.mix.hot_batch else cl.mix.hot_single
      in
      (0, pool.(Prom_linalg.Rng.int rng (Array.length pool)))
    else (1, cl.mix.cold_single.(Prom_linalg.Rng.int rng (Array.length cl.mix.cold_single)))
  in
  let t_start = Tr.now () +. 0.002 in
  let t_end = t_start +. seconds in
  let drain_deadline = t_end +. 2.0 in
  let next = ref (t_start +. Tr.poisson_gap rng rate) in
  let busy () = Array.exists (fun c -> not (Queue.is_empty c.q)) cl.conns in
  let continue = ref true in
  while !continue do
    let now = Tr.now () in
    while !next <= now && !next < t_end do
      let tenant, b = pick () in
      let c = cl.conns.(tenant) in
      Buffer.add_string c.out b.wire;
      Queue.push { due = !next; b; tenant } c.q;
      Tr.Samples.add late (now -. !next);
      incr sent;
      next := !next +. Tr.poisson_gap rng rate
    done;
    Array.iter flush cl.conns;
    if !next >= t_end && not (busy ()) then continue := false
    else if now > drain_deadline then begin
      Array.iter reconnect cl.conns;
      continue := false
    end
    else begin
      let timeout = if !next < t_end then Float.max 0.0 (!next -. now) else 0.05 in
      let rd = List.map (fun c -> c.fd) (Array.to_list cl.conns) in
      let wr =
        List.filter_map
          (fun c -> if Buffer.length c.out > c.outoff then Some c.fd else None)
          (Array.to_list cl.conns)
      in
      match Unix.select rd wr [] timeout with
      | r, _, _ -> Array.iter (fun c -> if List.mem c.fd r then read c) cl.conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  {
    lat = Tr.Samples.to_array lat;
    cold_lat = Tr.Samples.to_array cold;
    late = Tr.Samples.to_array late;
    sent = !sent;
    failed = !failed;
    mismatched = !mismatched;
  }

(* {2 /metrics} *)

(* Sum of every sample whose series (name plus labels) starts with
   [prefix]. *)
let scrape text prefix =
  List.fold_left
    (fun acc line ->
      if String.length line > 0 && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i when String.starts_with ~prefix (String.sub line 0 i) -> (
            match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some v -> acc +. v
            | None -> acc)
        | _ -> acc
      else acc)
    0.0
    (String.split_on_char '\n' text)

let metrics_text ~port = (get ~port "/metrics").Http.resp_body
