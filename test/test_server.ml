(* Tests for the serving layer: the adaptive micro-batcher's ordering,
   coalescing, backpressure and drain semantics; HTTP/1.1 framing round
   trips; and end-to-end server behaviour — bit-identical verdicts vs
   the direct service path, 4xx on malformed input, 503 under overload,
   hot-swap under live traffic and graceful shutdown. *)

open Prom_linalg
open Prom_ml
open Prom
module J = Prom_jsonx
module Http = Prom_server.Http
module Batcher = Prom_server.Batcher
module Server = Prom_server.Server

let bits = Int64.bits_of_float
let check_bits name a b = Alcotest.(check int64) name (bits a) (bits b)

let has_substring text needle =
  let n = String.length needle and m = String.length text in
  let rec at i = i + n <= m && (String.sub text i n = needle || at (i + 1)) in
  at 0

(* ---------- world helpers (same two-cluster world as test_store) ---------- *)

let cls_data ?(n = 60) ?(seed = 11) () =
  let rng = Rng.create seed in
  let xs =
    Array.init n (fun i ->
        let cx = if i mod 2 = 0 then 0.0 else 3.0 in
        [|
          Rng.gaussian rng ~mu:cx ~sigma:0.8;
          Rng.gaussian rng ~mu:(-.cx) ~sigma:0.8;
          Rng.gaussian rng ~mu:(cx /. 2.0) ~sigma:0.5;
        |])
  in
  Dataset.create xs (Array.init n (fun i -> i mod 2))

let make_world ?telemetry ?(seed = 23) () =
  let data = cls_data ~n:80 ~seed () in
  let model = Logistic.train data in
  let triples =
    List.init (Dataset.length data) (fun i ->
        let x, y = Dataset.get data i in
        (x, y, model.Model.predict_proba x))
  in
  (Service.create ?telemetry triples, model)

let queries_of ?(seed = 17) model n =
  let rng = Rng.create seed in
  Array.init n (fun _ ->
      let x = Array.init 3 (fun _ -> Rng.gaussian rng ~mu:1.0 ~sigma:2.5) in
      (x, model.Model.predict_proba x))

(* ---------- HTTP client helpers ---------- *)

type client = { fd : Unix.file_descr; creader : Http.reader }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; creader = Http.reader fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rpc c ~meth ~path body =
  Http.write_request c.fd ~meth ~path body;
  match Http.read_response c.creader with
  | Ok r -> r
  | Error `Eof -> Alcotest.fail "connection closed mid-response"
  | Error (`Bad m) -> Alcotest.fail ("bad response: " ^ m)
  | Error (`Too_large _) -> Alcotest.fail "response too large"

let with_server ?config ?telemetry ?snapshot_dir ?tenants ?before_batch service
    f =
  let server =
    Server.start ?config ?telemetry ?snapshot_dir ?tenants ?before_batch service
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let json_vec v = J.Arr (Array.to_list (Array.map (fun x -> J.Num x) v))

let query_json (features, proba) =
  J.Obj [ ("features", json_vec features); ("proba", json_vec proba) ]

let parse_body (r : Http.response) =
  match J.parse r.Http.resp_body with
  | Ok v -> v
  | Error e -> Alcotest.fail ("unparseable response body: " ^ e)

let ffield name v =
  match Option.bind (J.member name v) J.to_float with
  | Some f -> f
  | None -> Alcotest.fail ("missing numeric field " ^ name)

let sfield name v =
  match Option.bind (J.member name v) J.to_string_opt with
  | Some s -> s
  | None -> Alcotest.fail ("missing string field " ^ name)

let bfield name v =
  match Option.bind (J.member name v) J.to_bool with
  | Some b -> b
  | None -> Alcotest.fail ("missing bool field " ^ name)

let check_verdict_json name (expected : Detector.cls_verdict) v =
  Alcotest.(check string)
    (name ^ " verdict")
    (if expected.Detector.drifted then "reject" else "accept")
    (sfield "verdict" v);
  Alcotest.(check bool)
    (name ^ " drifted") expected.Detector.drifted (bfield "drifted" v);
  Alcotest.(check int)
    (name ^ " predicted") expected.Detector.predicted
    (int_of_float (ffield "predicted" v));
  check_bits (name ^ " credibility") expected.Detector.mean_credibility
    (ffield "credibility" v);
  check_bits (name ^ " confidence") expected.Detector.mean_confidence
    (ffield "confidence" v)

(* ---------- batcher ---------- *)

let batcher_tests =
  [
    Alcotest.test_case "outputs are grouped and ordered" `Quick (fun () ->
        let b =
          Batcher.create ~max_batch:8
            (Array.map (fun x -> x * 2))
        in
        let results = Array.make 6 (Ok [||]) in
        let threads =
          Array.init 6 (fun i ->
              Thread.create
                (fun () ->
                  let items = Array.init (i + 1) (fun j -> (i * 10) + j) in
                  results.(i) <- Batcher.submit_many b items)
                ())
        in
        Array.iter Thread.join threads;
        Batcher.shutdown b;
        Array.iteri
          (fun i r ->
            match r with
            | Ok out ->
                Alcotest.(check int) "group arity" (i + 1) (Array.length out);
                Array.iteri
                  (fun j v ->
                    Alcotest.(check int) "in-order value" (((i * 10) + j) * 2) v)
                  out
            | Error _ -> Alcotest.fail "group submission failed")
          results);
    Alcotest.test_case "concurrent singles coalesce into shared batches" `Quick
      (fun () ->
        let sizes = ref [] in
        let sizes_lock = Mutex.create () in
        let b =
          Batcher.create ~max_batch:64
            ~on_batch:(fun n ->
              Mutex.lock sizes_lock;
              sizes := n :: !sizes;
              Mutex.unlock sizes_lock)
            ~before_batch:(fun () -> Thread.delay 0.2)
            (Array.map succ)
        in
        let threads =
          Array.init 6 (fun i ->
              Thread.create (fun () -> ignore (Batcher.submit b i)) ())
        in
        Array.iter Thread.join threads;
        Batcher.shutdown b;
        Alcotest.(check int) "all items ran" 6 (List.fold_left ( + ) 0 !sizes);
        Alcotest.(check bool)
          "adaptive batching formed a multi-item batch" true
          (List.exists (fun n -> n >= 2) !sizes);
        Alcotest.(check bool)
          "fewer dispatches than items" true
          (List.length !sizes < 6));
    Alcotest.test_case "bounded queue rejects overload, then recovers" `Quick
      (fun () ->
        let b =
          Batcher.create ~max_batch:1 ~capacity:2
            ~before_batch:(fun () -> Thread.delay 0.3)
            (Array.map succ)
        in
        let r1 = ref (Error `Shutdown) and r2 = ref (Error `Shutdown) in
        let r3 = ref (Error `Shutdown) in
        let t1 = Thread.create (fun () -> r1 := Batcher.submit b 0) () in
        Thread.delay 0.05;
        (* item 0 is mid-evaluation; the queue is empty again *)
        let t2 = Thread.create (fun () -> r2 := Batcher.submit b 1) () in
        let t3 = Thread.create (fun () -> r3 := Batcher.submit b 2) () in
        Thread.delay 0.05;
        (* queue now holds items 1 and 2 = capacity *)
        (match Batcher.submit b 3 with
        | Error `Overloaded -> ()
        | Ok _ -> Alcotest.fail "expected overload rejection"
        | Error _ -> Alcotest.fail "wrong rejection");
        Thread.join t1;
        Thread.join t2;
        Thread.join t3;
        (match (!r1, !r2, !r3) with
        | Ok 1, Ok 2, Ok 3 -> ()
        | _ -> Alcotest.fail "accepted submissions must all complete");
        (* capacity is free again after the drain *)
        (match Batcher.submit b 9 with
        | Ok 10 -> ()
        | _ -> Alcotest.fail "recovery submission failed");
        Batcher.shutdown b);
    Alcotest.test_case "evaluation failure is isolated" `Quick (fun () ->
        let b =
          Batcher.create ~max_batch:4
            (Array.map (fun x -> if x < 0 then failwith "boom" else x + 1))
        in
        (match Batcher.submit b (-1) with
        | Error (`Failed (Failure _)) -> ()
        | _ -> Alcotest.fail "expected `Failed");
        (match Batcher.submit b 5 with
        | Ok 6 -> ()
        | _ -> Alcotest.fail "batcher must survive a failed batch");
        (match Batcher.submit_many b [||] with
        | Ok [||] -> ()
        | _ -> Alcotest.fail "empty submission");
        Batcher.shutdown b;
        match Batcher.submit b 1 with
        | Error `Shutdown -> ()
        | _ -> Alcotest.fail "post-shutdown submit must be rejected");
    Alcotest.test_case "shutdown answers every accepted submitter" `Quick
      (fun () ->
        let b =
          Batcher.create ~max_batch:1
            ~before_batch:(fun () -> Thread.delay 0.1)
            (Array.map succ)
        in
        let results = Array.make 4 None in
        let threads =
          Array.init 4 (fun i ->
              Thread.create (fun () -> results.(i) <- Some (Batcher.submit b i)) ())
        in
        Thread.delay 0.05;
        Batcher.shutdown b;
        Array.iter Thread.join threads;
        Alcotest.(check int) "drained queue" 0 (Batcher.depth b);
        Array.iteri
          (fun i r ->
            match r with
            | Some (Ok v) -> Alcotest.(check int) "drained value" (i + 1) v
            | Some (Error `Shutdown) ->
                (* raced the stop flag; rejected immediately, not dropped *)
                ()
            | Some (Error _) -> Alcotest.fail "accepted work failed"
            | None -> Alcotest.fail "submitter left hanging")
          results);
    Alcotest.test_case "on_depth may call back into the batcher" `Quick
      (fun () ->
        (* on_depth used to run with the batcher lock held, so a hook
           touching [depth] deadlocked the submitter. *)
        let bref = ref None in
        let fired = ref 0 in
        let b =
          Batcher.create ~max_batch:4
            ~on_depth:(fun _ ->
              (match !bref with
              | Some b -> ignore (Batcher.depth b)
              | None -> ());
              incr fired)
            (Array.map succ)
        in
        bref := Some b;
        (match Batcher.submit_many b [| 1; 2; 3 |] with
        | Ok [| 2; 3; 4 |] -> ()
        | _ -> Alcotest.fail "submission failed");
        Batcher.shutdown b;
        Alcotest.(check bool) "on_depth fired" true (!fired > 0));
    Alcotest.test_case "deficit round robin serves a cold key ahead of a hot \
                        backlog" `Quick (fun () ->
        (* One hot key piles up four groups while the dispatcher is
           busy; a cold key submits one. Under FIFO the cold item would
           run last; under DRR it rides the very next batch. *)
        let order = ref [] in
        let olock = Mutex.create () in
        let note tag =
          Mutex.lock olock;
          order := tag :: !order;
          Mutex.unlock olock
        in
        let b =
          Batcher.create ~max_batch:2 ~quantum:1
            ~before_batch:(fun () -> Thread.delay 0.15)
            (Array.map succ)
        in
        let t0 =
          Thread.create (fun () -> ignore (Batcher.submit ~key:0 b 100)) ()
        in
        Thread.delay 0.05;
        (* the first batch is mid-evaluation; build the backlog *)
        for i = 1 to 4 do
          Batcher.submit_async ~key:0 b [| i |] ~notify:(fun _ -> note `Hot)
        done;
        Batcher.submit_async ~key:1 b [| 9 |] ~notify:(fun _ -> note `Cold);
        Alcotest.(check int) "hot key depth" 4 (Batcher.key_depth b 0);
        Alcotest.(check int) "cold key depth" 1 (Batcher.key_depth b 1);
        Thread.join t0;
        Batcher.shutdown b;
        let seq = List.rev !order in
        Alcotest.(check int) "everything ran" 5 (List.length seq);
        let cold_pos =
          let rec idx i = function
            | [] -> Alcotest.fail "cold item never completed"
            | `Cold :: _ -> i
            | `Hot :: rest -> idx (i + 1) rest
          in
          idx 0 seq
        in
        Alcotest.(check bool)
          "cold item rode the first post-backlog batch" true (cold_pos <= 1));
    Alcotest.test_case "per-key capacity rejects the hot key only" `Quick
      (fun () ->
        let b =
          Batcher.create ~max_batch:1 ~capacity:16
            ~key_capacity:2
            ~before_batch:(fun () -> Thread.delay 0.2)
            (Array.map succ)
        in
        let r1 = ref (Error `Shutdown) in
        let r2 = ref (Error `Shutdown) and r3 = ref (Error `Shutdown) in
        let r_cold = ref (Error `Shutdown) in
        let t1 = Thread.create (fun () -> r1 := Batcher.submit ~key:0 b 0) () in
        Thread.delay 0.05;
        (* item 0 is mid-evaluation; fill key 0 to its cap *)
        let t2 = Thread.create (fun () -> r2 := Batcher.submit ~key:0 b 1) () in
        let t3 = Thread.create (fun () -> r3 := Batcher.submit ~key:0 b 2) () in
        Thread.delay 0.05;
        (match Batcher.submit ~key:0 b 3 with
        | Error `Overloaded -> ()
        | Ok _ -> Alcotest.fail "expected per-key overload rejection"
        | Error _ -> Alcotest.fail "wrong rejection");
        (* the global queue still has headroom: another key is admitted *)
        let tc =
          Thread.create (fun () -> r_cold := Batcher.submit ~key:1 b 7) ()
        in
        Thread.join t1;
        Thread.join t2;
        Thread.join t3;
        Thread.join tc;
        (match (!r1, !r2, !r3, !r_cold) with
        | Ok 1, Ok 2, Ok 3, Ok 8 -> ()
        | _ -> Alcotest.fail "accepted submissions must all complete");
        (* the hot key's budget frees up after the drain *)
        (match Batcher.submit ~key:0 b 9 with
        | Ok 10 -> ()
        | _ -> Alcotest.fail "hot key must recover after the drain");
        Batcher.shutdown b);
    Alcotest.test_case "submit_async answers without a parked thread" `Quick
      (fun () ->
        let b = Batcher.create ~max_batch:4 (Array.map succ) in
        let lock = Mutex.create () and cond = Condition.create () in
        let result = ref None in
        Batcher.submit_async b [| 7; 8 |] ~notify:(fun r ->
            Mutex.lock lock;
            result := Some r;
            Condition.signal cond;
            Mutex.unlock lock);
        Batcher.flush b;
        Mutex.lock lock;
        while !result = None do
          Condition.wait cond lock
        done;
        Mutex.unlock lock;
        (match !result with
        | Some (Ok [| 8; 9 |]) -> ()
        | _ -> Alcotest.fail "async group not answered in order");
        (* rejections come back synchronously on the caller's thread *)
        let b2 =
          Batcher.create ~max_batch:1 ~capacity:1
            (Array.map succ)
        in
        let sync = ref None in
        Batcher.submit_async b2 [| 1; 2 |] ~notify:(fun r -> sync := Some r);
        (match !sync with
        | Some (Error `Overloaded) -> ()
        | _ -> Alcotest.fail "oversized group must be rejected synchronously");
        let empty = ref None in
        Batcher.submit_async b2 [||] ~notify:(fun r -> empty := Some r);
        (match !empty with
        | Some (Ok [||]) -> ()
        | _ -> Alcotest.fail "empty group must be answered synchronously");
        Batcher.shutdown b2;
        let post = ref None in
        Batcher.submit_async b2 [| 1 |] ~notify:(fun r -> post := Some r);
        (match !post with
        | Some (Error `Shutdown) -> ()
        | _ -> Alcotest.fail "post-shutdown async submit must be rejected");
        Batcher.shutdown b);
    Alcotest.test_case "sequential submits on an idle batcher pay no linger"
      `Quick (fun () ->
        (* A lone submit costs one wake and one batch; any timed wait
           for company (2 ms each would be 400 ms here) fails this. *)
        let b = Batcher.create (Array.map succ) in
        let t0 = Unix.gettimeofday () in
        for i = 1 to 200 do
          match Batcher.submit b i with
          | Ok v when v = i + 1 -> ()
          | _ -> Alcotest.fail "submit failed"
        done;
        let elapsed = Unix.gettimeofday () -. t0 in
        Batcher.shutdown b;
        if elapsed >= 0.2 then
          Alcotest.failf "200 sequential submits took %.0f ms (budget 200 ms)"
            (elapsed *. 1000.0));
    Alcotest.test_case "async groups wait for flush, then run as one batch"
      `Quick (fun () ->
        let sizes = ref [] and done_count = ref 0 in
        let lock = Mutex.create () and cond = Condition.create () in
        let b =
          Batcher.create
            ~on_batch:(fun n ->
              Mutex.lock lock;
              sizes := n :: !sizes;
              Mutex.unlock lock)
            (Array.map succ)
        in
        (* let the dispatcher park on its empty queue *)
        Thread.delay 0.05;
        for i = 1 to 5 do
          Batcher.submit_async b [| i |] ~notify:(fun r ->
              Mutex.lock lock;
              (match r with
              | Ok [| v |] when v = i + 1 -> incr done_count
              | _ -> ());
              Condition.signal cond;
              Mutex.unlock lock)
        done;
        Thread.delay 0.1;
        Mutex.lock lock;
        let before = List.length !sizes in
        Mutex.unlock lock;
        Alcotest.(check int) "no batch before flush" 0 before;
        Alcotest.(check int) "all five queued" 5 (Batcher.depth b);
        Batcher.flush b;
        Mutex.lock lock;
        while !done_count < 5 do
          Condition.wait cond lock
        done;
        let sizes = !sizes in
        Mutex.unlock lock;
        Batcher.shutdown b;
        Alcotest.(check (list int)) "one batch of five" [ 5 ] sizes);
  ]

(* ---------- HTTP framing ---------- *)

let socketpair () = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0

let with_pair f =
  let a, b = socketpair () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let fake_request ?(version = "HTTP/1.1") headers =
  {
    Http.meth = "GET";
    path = "/";
    version;
    req_headers = headers;
    req_body = "";
  }

let http_tests =
  [
    Alcotest.test_case "request round trip" `Quick (fun () ->
        with_pair (fun a b ->
            Http.write_request a ~meth:"POST" ~path:"/predict"
              ~extra_headers:[ ("X-Trace", "7") ]
              "{\"x\":1}";
            let r = Http.reader b in
            match Http.read_request r with
            | Ok req ->
                Alcotest.(check string) "meth" "POST" req.Http.meth;
                Alcotest.(check string) "path" "/predict" req.Http.path;
                Alcotest.(check string) "body" "{\"x\":1}" req.Http.req_body;
                Alcotest.(check (option string))
                  "header name lowercased" (Some "7")
                  (Http.header "x-trace" req.Http.req_headers);
                Alcotest.(check bool) "keep alive" true (Http.keep_alive req)
            | Error _ -> Alcotest.fail "request did not parse"));
    Alcotest.test_case "response round trip" `Quick (fun () ->
        with_pair (fun a b ->
            Http.write_response a ~status:503
              ~extra_headers:[ ("Retry-After", "1") ]
              ~keep_alive:false "{\"error\":\"x\"}";
            let r = Http.reader b in
            match Http.read_response r with
            | Ok resp ->
                Alcotest.(check int) "status" 503 resp.Http.status;
                Alcotest.(check string)
                  "reason" "Service Unavailable" resp.Http.reason;
                Alcotest.(check string)
                  "body" "{\"error\":\"x\"}" resp.Http.resp_body;
                Alcotest.(check (option string))
                  "retry-after" (Some "1")
                  (Http.header "retry-after" resp.Http.resp_headers);
                Alcotest.(check (option string))
                  "connection close" (Some "close")
                  (Http.header "connection" resp.Http.resp_headers)
            | Error _ -> Alcotest.fail "response did not parse"));
    Alcotest.test_case "pipelined requests are buffered" `Quick (fun () ->
        with_pair (fun a b ->
            Http.write_request a ~meth:"POST" ~path:"/one" "11";
            Http.write_request a ~meth:"POST" ~path:"/two" "22";
            let r = Http.reader b in
            (match Http.read_request r with
            | Ok req -> Alcotest.(check string) "first" "/one" req.Http.path
            | Error _ -> Alcotest.fail "first request");
            Alcotest.(check bool) "second is buffered" true (Http.buffered r);
            Alcotest.(check bool)
              "buffered data is ready" true
              (Http.wait_readable r ~timeout:0.0 = `Ready);
            match Http.read_request r with
            | Ok req ->
                Alcotest.(check string) "second" "/two" req.Http.path;
                Alcotest.(check string) "second body" "22" req.Http.req_body
            | Error _ -> Alcotest.fail "second request"));
    Alcotest.test_case "read errors are classified" `Quick (fun () ->
        with_pair (fun a b ->
            (* clean close before any bytes -> `Eof *)
            Unix.close a;
            match Http.read_request (Http.reader b) with
            | Error `Eof -> ()
            | _ -> Alcotest.fail "expected `Eof");
        with_pair (fun a b ->
            let junk = "NOT AN HTTP LINE AT ALL\r\n\r\n" in
            ignore (Unix.write_substring a junk 0 (String.length junk));
            match Http.read_request (Http.reader b) with
            | Error (`Bad _) -> ()
            | _ -> Alcotest.fail "expected `Bad");
        with_pair (fun a b ->
            let big =
              "GET / HTTP/1.1\r\nX-Big: " ^ String.make 300 'a' ^ "\r\n\r\n"
            in
            ignore (Unix.write_substring a big 0 (String.length big));
            match Http.read_request ~max_header:64 (Http.reader b) with
            | Error (`Too_large `Head) -> ()
            | _ -> Alcotest.fail "expected `Too_large `Head");
        with_pair (fun a b ->
            Http.write_request a ~meth:"POST" ~path:"/p" (String.make 256 'x');
            match Http.read_request ~max_body:64 (Http.reader b) with
            | Error (`Too_large `Body) -> ()
            | _ -> Alcotest.fail "expected `Too_large `Body"));
    Alcotest.test_case "duplicate content-length is rejected" `Quick (fun () ->
        let raw_request headers =
          "POST /p HTTP/1.1\r\n"
          ^ String.concat "" (List.map (fun h -> h ^ "\r\n") headers)
          ^ "\r\nhi"
        in
        let expect_bad name headers =
          with_pair (fun a b ->
              let raw = raw_request headers in
              ignore (Unix.write_substring a raw 0 (String.length raw));
              match Http.read_request (Http.reader b) with
              | Error (`Bad _) -> ()
              | _ -> Alcotest.fail (name ^ ": expected `Bad"))
        in
        (* Conflicting copies smuggle; identical copies are rejected
           too — an intermediary may dedup them differently. *)
        expect_bad "conflicting copies"
          [ "Content-Length: 2"; "Content-Length: 5" ];
        expect_bad "identical copies"
          [ "Content-Length: 2"; "Content-Length: 2" ];
        expect_bad "negative length" [ "Content-Length: -2" ];
        (* a single well-formed length still parses *)
        with_pair (fun a b ->
            let raw = raw_request [ "Content-Length: 2" ] in
            ignore (Unix.write_substring a raw 0 (String.length raw));
            match Http.read_request (Http.reader b) with
            | Ok req -> Alcotest.(check string) "body" "hi" req.Http.req_body
            | Error _ -> Alcotest.fail "single content-length must parse"));
    Alcotest.test_case "connection header is a comma-separated token list"
      `Quick (fun () ->
        let keep ?version headers =
          Http.keep_alive (fake_request ?version headers)
        in
        Alcotest.(check bool)
          "1.1: keep-alive token plus another token" true
          (keep [ ("connection", "keep-alive, upgrade") ]);
        Alcotest.(check bool)
          "1.1: close anywhere in the list wins" false
          (keep [ ("connection", "Upgrade, Close") ]);
        Alcotest.(check bool)
          "1.1: close beats keep-alive in the same list" false
          (keep [ ("connection", "keep-alive, close") ]);
        Alcotest.(check bool)
          "1.0: keep-alive token in a list turns persistence on" true
          (keep ~version:"HTTP/1.0" [ ("connection", "Keep-Alive, upgrade") ]);
        Alcotest.(check bool)
          "1.0: unrelated tokens leave persistence off" false
          (keep ~version:"HTTP/1.0" [ ("connection", "upgrade") ]);
        Alcotest.(check bool)
          "whitespace around tokens is trimmed" false
          (keep [ ("connection", " upgrade ,  close ") ]));
    Alcotest.test_case "keep-alive semantics" `Quick (fun () ->
        Alcotest.(check bool)
          "1.1 default on" true
          (Http.keep_alive (fake_request []));
        Alcotest.(check bool)
          "1.1 close" false
          (Http.keep_alive (fake_request [ ("connection", "close") ]));
        Alcotest.(check bool)
          "1.1 close value is case-insensitive" false
          (Http.keep_alive (fake_request [ ("connection", "Close") ]));
        Alcotest.(check bool)
          "1.0 default off" false
          (Http.keep_alive (fake_request ~version:"HTTP/1.0" []));
        Alcotest.(check bool)
          "1.0 explicit keep-alive" true
          (Http.keep_alive
             (fake_request ~version:"HTTP/1.0" [ ("connection", "keep-alive") ])));
  ]

(* ---------- end-to-end server ---------- *)

let e2e_tests =
  [
    Alcotest.test_case "healthz, metrics, 404 and 405 on one connection" `Quick
      (fun () ->
        let registry = Prom_obs.create_registry () in
        let telemetry = Telemetry.create registry in
        let service, _ = make_world ~telemetry () in
        with_server ~telemetry service (fun server ->
            Alcotest.(check bool)
              "service accessor" true
              (Server.service server == service);
            let c = connect (Server.port server) in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                let h = rpc c ~meth:"GET" ~path:"/healthz" "" in
                Alcotest.(check int) "healthz status" 200 h.Http.status;
                let hv = parse_body h in
                Alcotest.(check string) "status ok" "ok" (sfield "status" hv);
                Alcotest.(check int)
                  "feature_dim" 3
                  (int_of_float (ffield "feature_dim" hv));
                Alcotest.(check int)
                  "n_classes" 2
                  (int_of_float (ffield "n_classes" hv));
                let nf = rpc c ~meth:"GET" ~path:"/nope" "" in
                Alcotest.(check int) "404" 404 nf.Http.status;
                let mna = rpc c ~meth:"GET" ~path:"/predict" "" in
                Alcotest.(check int) "405" 405 mna.Http.status;
                let m = rpc c ~meth:"GET" ~path:"/metrics" "" in
                Alcotest.(check int) "metrics status" 200 m.Http.status;
                (match Prom_obs.validate_exposition m.Http.resp_body with
                | Ok () -> ()
                | Error e -> Alcotest.fail ("invalid exposition: " ^ e));
                Alcotest.(check bool)
                  "request counter exported" true
                  (has_substring m.Http.resp_body "prom_http_requests_total");
                Alcotest.(check bool)
                  "latency histogram exported" true
                  (has_substring m.Http.resp_body "prom_http_request_seconds"))));
    Alcotest.test_case "served verdicts are bit-identical to the direct path"
      `Quick (fun () ->
        let service, model = make_world () in
        let queries = queries_of model 10 in
        let direct = Service.evaluate_batch service queries in
        with_server service (fun server ->
            let c = connect (Server.port server) in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                Array.iteri
                  (fun i q ->
                    let r =
                      rpc c ~meth:"POST" ~path:"/predict"
                        (J.to_string (query_json q))
                    in
                    Alcotest.(check int) "single status" 200 r.Http.status;
                    check_verdict_json
                      (Printf.sprintf "single %d" i)
                      direct.(i) (parse_body r))
                  queries;
                let batch_body =
                  J.to_string
                    (J.Obj
                       [
                         ( "queries",
                           J.Arr
                             (Array.to_list (Array.map query_json queries)) );
                       ])
                in
                let r = rpc c ~meth:"POST" ~path:"/predict" batch_body in
                Alcotest.(check int) "batch status" 200 r.Http.status;
                match Option.bind (J.member "results" (parse_body r)) J.to_list with
                | Some results ->
                    Alcotest.(check int)
                      "batch arity" (Array.length queries) (List.length results);
                    List.iteri
                      (fun i v ->
                        check_verdict_json
                          (Printf.sprintf "batch %d" i)
                          direct.(i) v)
                      results
                | None -> Alcotest.fail "batch response missing results")));
    Alcotest.test_case "malformed requests get 4xx and never crash" `Quick
      (fun () ->
        let service, model = make_world () in
        let config = { Server.default_config with max_body_bytes = 2048 } in
        with_server ~config service (fun server ->
            let port = Server.port server in
            let expect name status body =
              let c = connect port in
              Fun.protect
                ~finally:(fun () -> close c)
                (fun () ->
                  let r = rpc c ~meth:"POST" ~path:"/predict" body in
                  Alcotest.(check int) name status r.Http.status;
                  Alcotest.(check bool)
                    (name ^ " has error field")
                    true
                    (has_substring r.Http.resp_body "\"error\""))
            in
            expect "bad JSON" 400 "this is not json";
            expect "wrong feature dim" 422
              "{\"features\":[1.0],\"proba\":[0.5,0.5]}";
            expect "wrong proba dim" 422
              "{\"features\":[1.0,2.0,3.0],\"proba\":[1.0]}";
            expect "non-numeric features" 422
              "{\"features\":[\"a\",\"b\",\"c\"],\"proba\":[0.5,0.5]}";
            expect "queries not an array" 422 "{\"queries\":3}";
            expect "empty batch" 422 "{\"queries\":[]}";
            expect "oversized body" 413 (String.make 4096 ' ');
            (* the server is still healthy afterwards *)
            let q = (queries_of model 1).(0) in
            let c = connect port in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                let r =
                  rpc c ~meth:"POST" ~path:"/predict"
                    (J.to_string (query_json q))
                in
                Alcotest.(check int) "still serving" 200 r.Http.status)));
    Alcotest.test_case "overload answers 503 with Retry-After, then recovers"
      `Quick (fun () ->
        let service, model = make_world () in
        let q = (queries_of model 1).(0) in
        let body = J.to_string (query_json q) in
        let config =
          {
            Server.default_config with
            max_batch = 1;
            queue_capacity = 2;
          }
        in
        with_server ~config
          ~before_batch:(fun () -> Thread.delay 0.25)
          service
          (fun server ->
            let port = Server.port server in
            let statuses = Array.make 8 0 in
            let retry_after = Array.make 8 None in
            let threads =
              Array.init 8 (fun i ->
                  Thread.create
                    (fun () ->
                      try
                        let c = connect port in
                        Fun.protect
                          ~finally:(fun () -> close c)
                          (fun () ->
                            Http.write_request c.fd ~meth:"POST"
                              ~path:"/predict" body;
                            match Http.read_response c.creader with
                            | Ok r ->
                                statuses.(i) <- r.Http.status;
                                retry_after.(i) <-
                                  Http.header "retry-after" r.Http.resp_headers
                            | Error _ -> statuses.(i) <- -1)
                      with _ -> statuses.(i) <- -2)
                    ())
            in
            Array.iter Thread.join threads;
            let count s =
              Array.fold_left (fun a x -> if x = s then a + 1 else a) 0 statuses
            in
            Alcotest.(check int)
              "every request got a well-formed answer" 8
              (count 200 + count 503);
            Alcotest.(check bool) "some served" true (count 200 >= 1);
            Alcotest.(check bool) "some shed" true (count 503 >= 1);
            Array.iteri
              (fun i s ->
                if s = 503 then
                  Alcotest.(check (option string))
                    "503 carries Retry-After" (Some "1") retry_after.(i))
              statuses;
            (* the queue drains and service resumes *)
            Thread.delay 0.3;
            let c = connect port in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                let r = rpc c ~meth:"POST" ~path:"/predict" body in
                Alcotest.(check int) "recovered" 200 r.Http.status)));
    Alcotest.test_case "graceful stop drains in-flight requests" `Quick
      (fun () ->
        let service, model = make_world () in
        let q = (queries_of model 1).(0) in
        let body = J.to_string (query_json q) in
        let config =
          { Server.default_config with max_batch = 1 }
        in
        let server =
          Server.start ~config
            ~before_batch:(fun () -> Thread.delay 0.3)
            service
        in
        let port = Server.port server in
        let result = ref None in
        let th =
          Thread.create
            (fun () ->
              try
                let c = connect port in
                Fun.protect
                  ~finally:(fun () -> close c)
                  (fun () ->
                    Http.write_request c.fd ~meth:"POST" ~path:"/predict" body;
                    match Http.read_response c.creader with
                    | Ok r -> result := Some r.Http.status
                    | Error _ -> result := Some (-1))
              with _ -> result := Some (-2))
            ()
        in
        Thread.delay 0.1;
        (* the request is mid-batch; stop must wait for it *)
        Server.stop server;
        Thread.join th;
        Alcotest.(check (option int)) "in-flight request served" (Some 200)
          !result;
        (* stop is idempotent *)
        Server.stop server;
        match connect port with
        | c ->
            close c;
            Alcotest.fail "listener should be closed after stop"
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
    Alcotest.test_case "431 for an oversized head, 413 for an oversized body"
      `Quick (fun () ->
        let service, model = make_world () in
        let config = { Server.default_config with max_body_bytes = 1024 } in
        with_server ~config service (fun server ->
            let port = Server.port server in
            (* head past the 16 KiB cap: 431, not 413 *)
            let c = connect port in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                let huge =
                  "GET /healthz HTTP/1.1\r\nX-Pad: "
                  ^ String.make 20_000 'a'
                  ^ "\r\n\r\n"
                in
                ignore (Unix.write_substring c.fd huge 0 (String.length huge));
                match Http.read_response c.creader with
                | Ok r ->
                    Alcotest.(check int) "oversized head" 431 r.Http.status;
                    Alcotest.(check (option string))
                      "431 closes the connection" (Some "close")
                      (Http.header "connection" r.Http.resp_headers)
                | Error _ -> Alcotest.fail "431 response unreadable");
            (* declared body past max_body_bytes: 413, answered from the
               head alone *)
            let c = connect port in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                let r =
                  rpc c ~meth:"POST" ~path:"/predict" (String.make 4096 ' ')
                in
                Alcotest.(check int) "oversized body" 413 r.Http.status);
            (* the server survives both *)
            let q = (queries_of model 1).(0) in
            let c = connect port in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                let r =
                  rpc c ~meth:"POST" ~path:"/predict"
                    (J.to_string (query_json q))
                in
                Alcotest.(check int) "still serving" 200 r.Http.status)));
    Alcotest.test_case "admission 503 is fully accounted in metrics" `Quick
      (fun () ->
        let service, model = make_world () in
        let q = (queries_of model 1).(0) in
        let config = { Server.default_config with max_connections = 1 } in
        with_server ~config service (fun server ->
            let port = Server.port server in
            let c1 = connect port in
            Fun.protect
              ~finally:(fun () -> close c1)
              (fun () ->
                (* second connection is past the soft cap: its request is
                   still read and answered 503 + close *)
                let c2 = connect port in
                Fun.protect
                  ~finally:(fun () -> close c2)
                  (fun () ->
                    let r =
                      rpc c2 ~meth:"POST" ~path:"/predict"
                        (J.to_string (query_json q))
                    in
                    Alcotest.(check int) "admission 503" 503 r.Http.status;
                    Alcotest.(check (option string))
                      "admission 503 carries Retry-After" (Some "1")
                      (Http.header "retry-after" r.Http.resp_headers);
                    Alcotest.(check (option string))
                      "admission 503 closes" (Some "close")
                      (Http.header "connection" r.Http.resp_headers));
                let m = rpc c1 ~meth:"GET" ~path:"/metrics" "" in
                Alcotest.(check int) "metrics still served" 200 m.Http.status;
                Alcotest.(check bool)
                  "503 hit the status counter" true
                  (has_substring m.Http.resp_body
                     "prom_http_requests_total{code=\"503\"} 1");
                (* the latency histogram observed it too — this was the
                   accounting bug in the old accept loop *)
                Alcotest.(check bool)
                  "503 hit the latency histogram" true
                  (has_substring m.Http.resp_body
                     "prom_http_request_seconds_count 1");
                Alcotest.(check bool)
                  "open-connections gauge exported" true
                  (has_substring m.Http.resp_body "prom_http_open_connections"))));
    Alcotest.test_case
      "1100 simultaneous keep-alive connections predict and drain" `Quick
      (fun () ->
        (* The point of the event loop: descriptors far past FD_SETSIZE
           (1024) — where the old select-based loop silently corrupted
           its fd_set — serve requests and drain like any other. *)
        let service, model = make_world () in
        let q = (queries_of model 1).(0) in
        let body = J.to_string (query_json q) in
        let direct = (Service.evaluate_batch service [| q |]).(0) in
        let n = 1100 in
        let config =
          {
            Server.default_config with
            max_connections = n + 64;
            queue_capacity = 4096;
          }
        in
        with_server ~config service (fun server ->
            let port = Server.port server in
            let conns = Array.init n (fun _ -> connect port) in
            Fun.protect
              ~finally:(fun () -> Array.iter close conns)
              (fun () ->
                (* a sample of connections — including the very last,
                   whose descriptor is well past 1024 — serve predicts
                   while the other thousand-plus sit idle *)
                let served = ref 0 in
                Array.iteri
                  (fun i c ->
                    if i mod 109 = 0 || i = n - 1 then begin
                      let r = rpc c ~meth:"POST" ~path:"/predict" body in
                      Alcotest.(check int)
                        (Printf.sprintf "status on conn %d" i)
                        200 r.Http.status;
                      check_verdict_json
                        (Printf.sprintf "conn %d" i)
                        direct (parse_body r);
                      incr served
                    end)
                  conns;
                Alcotest.(check bool)
                  "sampled across the fd range" true (!served >= 10);
                (* drain with 1100 connections still open: idle ones are
                   swept immediately, stop returns promptly *)
                Server.stop server;
                let eof =
                  match Unix.read conns.(0).fd (Bytes.create 1) 0 1 with
                  | 0 -> true
                  | _ -> false
                  | exception
                      Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                      true
                in
                Alcotest.(check bool) "drained idle conn closed" true eof)));
    Alcotest.test_case
      "pipelined predicts in one write come back in order, unstalled" `Quick
      (fun () ->
        (* Each pipelined request is submitted only once the previous
           response is written, so the server sends 40 small responses
           back to back on one connection. Without TCP_NODELAY, Nagle
           holds a response until the client ACKs the previous one, and
           the client delays that ACK by at least 40 ms; with it, the
           whole burst takes a few ms. The best of three bursts must
           beat 25 ms, so one slow stretch of the host cannot fail the
           test while a Nagle stall fails every burst. *)
        let service, model = make_world () in
        let n = 40 in
        let queries = queries_of ~seed:29 model n in
        let direct = Service.evaluate_batch service queries in
        let wire =
          String.concat ""
            (Array.to_list
               (Array.map
                  (fun q ->
                    let body = J.to_string (query_json q) in
                    Printf.sprintf
                      "POST /predict HTTP/1.1\r\nHost: localhost\r\n\
                       Content-Type: application/json\r\n\
                       Content-Length: %d\r\n\r\n%s"
                      (String.length body) body)
                  queries))
        in
        with_server service (fun server ->
            let c = connect (Server.port server) in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                let warm =
                  rpc c ~meth:"POST" ~path:"/predict"
                    (J.to_string (query_json queries.(0)))
                in
                Alcotest.(check int) "warm-up status" 200 warm.Http.status;
                let burst () =
                  let t0 = Unix.gettimeofday () in
                  let len = String.length wire in
                  Alcotest.(check int)
                    "all requests in one write" len
                    (Unix.write_substring c.fd wire 0 len);
                  Array.iteri
                    (fun i expected ->
                      match Http.read_response c.creader with
                      | Ok r ->
                          Alcotest.(check int)
                            "pipelined status" 200 r.Http.status;
                          check_verdict_json
                            (Printf.sprintf "pipelined %d" i)
                            expected (parse_body r)
                      | Error _ -> Alcotest.failf "response %d missing" i)
                    direct;
                  Unix.gettimeofday () -. t0
                in
                let rec best tries acc =
                  if tries = 0 || acc < 0.025 then acc
                  else best (tries - 1) (Float.min acc (burst ()))
                in
                let fastest = best 3 infinity in
                if fastest >= 0.025 then
                  Alcotest.failf
                    "fastest of 3 pipelined bursts took %.1f ms (budget 25 ms)"
                    (fastest *. 1000.0))));
  ]

(* ---------- hot swap under live traffic ---------- *)

let swap_live_tests =
  [
    Alcotest.test_case
      "hot swap under live traffic: zero failures, bit-identical verdicts"
      `Quick (fun () ->
        let registry = Prom_obs.create_registry () in
        let telemetry = Telemetry.create registry in
        let service, model = make_world ~telemetry () in
        let dir = Filename.temp_dir "prom-server-test" "" in
        ignore (Snapshot.save ~dir (Service.snapshot service));
        let queries = queries_of model 4 in
        let direct = Service.evaluate_batch service queries in
        let bodies = Array.map (fun q -> J.to_string (query_json q)) queries in
        with_server ~telemetry ~snapshot_dir:dir service (fun server ->
            let port = Server.port server in
            let n_workers = 6 and n_reqs = 25 in
            let worker_err = Array.make n_workers None in
            let workers =
              Array.init n_workers (fun w ->
                  Thread.create
                    (fun () ->
                      try
                        let c = connect port in
                        Fun.protect
                          ~finally:(fun () -> close c)
                          (fun () ->
                            for k = 0 to n_reqs - 1 do
                              let j = k mod Array.length queries in
                              Http.write_request c.fd ~meth:"POST"
                                ~path:"/predict" bodies.(j);
                              match Http.read_response c.creader with
                              | Ok r when r.Http.status = 200 -> (
                                  match J.parse r.Http.resp_body with
                                  | Ok v ->
                                      let cred =
                                        Option.bind (J.member "credibility" v)
                                          J.to_float
                                      in
                                      if
                                        cred
                                        <> Some
                                             direct.(j).Detector
                                              .mean_credibility
                                      then
                                        worker_err.(w) <-
                                          Some "verdict drifted across swap"
                                  | Error e -> worker_err.(w) <- Some e)
                              | Ok r ->
                                  worker_err.(w) <-
                                    Some
                                      (Printf.sprintf "status %d" r.Http.status)
                              | Error _ ->
                                  worker_err.(w) <- Some "read error"
                            done)
                      with e -> worker_err.(w) <- Some (Printexc.to_string e))
                    ())
            in
            (* five hot swaps while the workers hammer /predict *)
            let admin = connect port in
            Fun.protect
              ~finally:(fun () -> close admin)
              (fun () ->
                for s = 1 to 5 do
                  let r = rpc admin ~meth:"POST" ~path:"/admin/swap" "" in
                  Alcotest.(check int) "swap status" 200 r.Http.status;
                  let v = parse_body r in
                  Alcotest.(check bool) "swapped" true (bfield "swapped" v);
                  Alcotest.(check int)
                    "swaps monotone" s
                    (int_of_float (ffield "swaps" v));
                  Thread.delay 0.05
                done);
            Array.iter Thread.join workers;
            Array.iteri
              (fun w err ->
                match err with
                | None -> ()
                | Some e ->
                    Alcotest.fail (Printf.sprintf "worker %d failed: %s" w e))
              worker_err;
            (* counters agree: five swaps, zero drops *)
            let c = connect port in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                let h = rpc c ~meth:"GET" ~path:"/healthz" "" in
                Alcotest.(check int)
                  "healthz swaps" 5
                  (int_of_float (ffield "swaps" (parse_body h)));
                let m = rpc c ~meth:"GET" ~path:"/metrics" "" in
                Alcotest.(check bool)
                  "swap counter exported" true
                  (has_substring m.Http.resp_body "prom_service_swaps_total 5"))));
  ]

(* ---------- multi-tenant serving ---------- *)

let tenant_tests =
  [
    Alcotest.test_case
      "two tenants share batches, each bit-identical to its direct path" `Quick
      (fun () ->
        let registry = Prom_obs.create_registry () in
        let telemetry = Telemetry.create registry in
        let svc_a, model_a = make_world ~telemetry ~seed:23 () in
        let svc_b, model_b = make_world ~telemetry ~seed:41 () in
        let tenants = Tenant.create () in
        ignore (Tenant.register ~service:svc_b tenants "b");
        let qa = queries_of model_a 6 in
        let qb = queries_of ~seed:19 model_b 6 in
        let da = Service.evaluate_batch svc_a qa in
        let db = Service.evaluate_batch svc_b qb in
        (* slow the batcher down so concurrent requests from both
           tenants land in shared rounds *)
        with_server ~telemetry ~tenants
          ~before_batch:(fun () -> Thread.delay 0.02)
          svc_a
          (fun server ->
            let port = Server.port server in
            Alcotest.(check int)
              "registry holds b and default" 2
              (Tenant.count (Server.tenants server));
            let errs = Array.make 2 None in
            let worker w path queries direct =
              Thread.create
                (fun () ->
                  try
                    let c = connect port in
                    Fun.protect
                      ~finally:(fun () -> close c)
                      (fun () ->
                        for k = 0 to 17 do
                          let j = k mod Array.length queries in
                          let r =
                            rpc c ~meth:"POST" ~path
                              (J.to_string (query_json queries.(j)))
                          in
                          if r.Http.status <> 200 then
                            errs.(w) <-
                              Some (Printf.sprintf "status %d" r.Http.status)
                          else
                            check_verdict_json
                              (Printf.sprintf "%s %d" path j)
                              direct.(j) (parse_body r)
                        done)
                  with e -> errs.(w) <- Some (Printexc.to_string e))
                ()
            in
            let ta = worker 0 "/predict" qa da in
            let tb = worker 1 "/t/b/predict" qb db in
            Thread.join ta;
            Thread.join tb;
            Array.iter
              (function
                | None -> ()
                | Some e -> Alcotest.fail ("tenant worker failed: " ^ e))
              errs;
            (* unprefixed routes are the default tenant *)
            let c = connect port in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                let body = J.to_string (query_json qa.(0)) in
                let plain = rpc c ~meth:"POST" ~path:"/predict" body in
                let routed =
                  rpc c ~meth:"POST" ~path:"/t/default/predict" body
                in
                Alcotest.(check int) "routed status" 200 routed.Http.status;
                check_bits "unprefixed = /t/default"
                  (ffield "credibility" (parse_body plain))
                  (ffield "credibility" (parse_body routed));
                let m = rpc c ~meth:"GET" ~path:"/metrics" "" in
                (match Prom_obs.validate_exposition m.Http.resp_body with
                | Ok () -> ()
                | Error e -> Alcotest.fail ("invalid exposition: " ^ e));
                let text = m.Http.resp_body in
                Alcotest.(check bool)
                  "per-tenant request counter" true
                  (has_substring text
                     "prom_http_requests_total{code=\"200\",tenant=\"b\"}");
                Alcotest.(check bool)
                  "per-tenant batch share" true
                  (has_substring text "prom_tenant_batch_share{tenant=\"b\"}");
                Alcotest.(check bool)
                  "per-tenant queue gauge" true
                  (has_substring text
                     "prom_tenant_queue_depth{tenant=\"default\"}"))));
    Alcotest.test_case "invalid, traversal and unknown tenant paths answer 404"
      `Quick (fun () ->
        let service, _ = make_world () in
        let tenants = Tenant.create () in
        let svc_b, _ = make_world ~seed:41 () in
        ignore (Tenant.register ~service:svc_b tenants "b");
        with_server ~tenants service (fun server ->
            let c = connect (Server.port server) in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                List.iter
                  (fun path ->
                    let r = rpc c ~meth:"POST" ~path "{}" in
                    Alcotest.(check int) (path ^ " is 404") 404 r.Http.status)
                  [
                    "/t/../predict";
                    "/t/./predict";
                    "/t/%2e%2e/predict";
                    "/t/a.b/predict";
                    "/t//predict";
                    "/t/" ^ String.make 65 'a' ^ "/predict";
                    "/t/zzz/predict";
                    "/t/b/nope";
                  ];
                let mna = rpc c ~meth:"GET" ~path:"/t/b/predict" "" in
                Alcotest.(check int) "tenant predict GET is 405" 405
                  mna.Http.status;
                let h = rpc c ~meth:"GET" ~path:"/t/b/healthz" "" in
                Alcotest.(check int) "tenant healthz" 200 h.Http.status;
                let hv = parse_body h in
                Alcotest.(check string) "tenant name" "b" (sfield "tenant" hv);
                Alcotest.(check string)
                  "tenant state" "ready" (sfield "state" hv))));
    Alcotest.test_case
      "swap: empty snapshot dir answers 503 retryable, no dir answers 409"
      `Quick (fun () ->
        let service, _ = make_world () in
        let tenants = Tenant.create () in
        let svc_c, _ = make_world ~seed:29 () in
        let svc_d, _ = make_world ~seed:31 () in
        let empty = Filename.temp_dir "prom-tenant-empty" "" in
        ignore (Tenant.register ~snapshot_dir:empty ~service:svc_c tenants "c");
        ignore (Tenant.register ~service:svc_d tenants "d");
        with_server ~tenants service (fun server ->
            let c = connect (Server.port server) in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                (* no loadable generation yet: retryable, a writer may
                   land one any moment — 503, not 500 *)
                let r = rpc c ~meth:"POST" ~path:"/t/c/admin/swap" "" in
                Alcotest.(check int) "empty dir swap" 503 r.Http.status;
                Alcotest.(check (option string))
                  "empty dir swap carries Retry-After" (Some "1")
                  (Http.header "retry-after" r.Http.resp_headers);
                Alcotest.(check bool)
                  "error mentions the directory" true
                  (has_substring r.Http.resp_body "no loadable snapshot");
                (* no snapshot directory configured at all: not retryable *)
                let r = rpc c ~meth:"POST" ~path:"/t/d/admin/swap" "" in
                Alcotest.(check int) "no dir swap" 409 r.Http.status;
                (* a generation lands; the same swap now succeeds *)
                ignore (Snapshot.save ~dir:empty (Service.snapshot svc_c));
                let r = rpc c ~meth:"POST" ~path:"/t/c/admin/swap" "" in
                Alcotest.(check int) "swap after save" 200 r.Http.status;
                Alcotest.(check string)
                  "swap names its tenant" "c"
                  (sfield "tenant" (parse_body r)))));
    Alcotest.test_case
      "hot-swap of one tenant under live traffic on another: zero failures"
      `Quick (fun () ->
        let service, model = make_world () in
        let svc_b, _ = make_world ~seed:41 () in
        let dir = Filename.temp_dir "prom-tenant-swap" "" in
        ignore (Snapshot.save ~dir (Service.snapshot svc_b));
        let tenants = Tenant.create () in
        ignore (Tenant.register ~snapshot_dir:dir ~service:svc_b tenants "b");
        let queries = queries_of model 4 in
        let direct = Service.evaluate_batch service queries in
        let bodies = Array.map (fun q -> J.to_string (query_json q)) queries in
        with_server ~tenants service (fun server ->
            let port = Server.port server in
            let n_workers = 4 and n_reqs = 20 in
            let worker_err = Array.make n_workers None in
            let workers =
              Array.init n_workers (fun w ->
                  Thread.create
                    (fun () ->
                      try
                        let c = connect port in
                        Fun.protect
                          ~finally:(fun () -> close c)
                          (fun () ->
                            for k = 0 to n_reqs - 1 do
                              let j = k mod Array.length queries in
                              Http.write_request c.fd ~meth:"POST"
                                ~path:"/predict" bodies.(j);
                              match Http.read_response c.creader with
                              | Ok r when r.Http.status = 200 ->
                                  let cred =
                                    ffield "credibility" (parse_body r)
                                  in
                                  if
                                    bits cred
                                    <> bits direct.(j).Detector.mean_credibility
                                  then
                                    worker_err.(w) <-
                                      Some "verdict drifted during tenant swap"
                              | Ok r ->
                                  worker_err.(w) <-
                                    Some
                                      (Printf.sprintf "status %d" r.Http.status)
                              | Error _ -> worker_err.(w) <- Some "read error"
                            done)
                      with e -> worker_err.(w) <- Some (Printexc.to_string e))
                    ())
            in
            let admin = connect port in
            Fun.protect
              ~finally:(fun () -> close admin)
              (fun () ->
                for s = 1 to 3 do
                  let r = rpc admin ~meth:"POST" ~path:"/t/b/admin/swap" "" in
                  Alcotest.(check int) "tenant swap status" 200 r.Http.status;
                  let v = parse_body r in
                  Alcotest.(check string) "swapped tenant" "b"
                    (sfield "tenant" v);
                  Alcotest.(check int)
                    "tenant swaps monotone" s
                    (int_of_float (ffield "swaps" v));
                  Thread.delay 0.03
                done);
            Array.iter Thread.join workers;
            Array.iteri
              (fun w err ->
                match err with
                | None -> ()
                | Some e ->
                    Alcotest.fail (Printf.sprintf "worker %d failed: %s" w e))
              worker_err;
            let c = connect port in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                let h = rpc c ~meth:"GET" ~path:"/t/b/healthz" "" in
                Alcotest.(check int)
                  "tenant swaps surfaced in healthz" 3
                  (int_of_float (ffield "swaps" (parse_body h)));
                let m = rpc c ~meth:"GET" ~path:"/metrics" "" in
                Alcotest.(check bool)
                  "tenant swap counter exported" true
                  (has_substring m.Http.resp_body
                     "prom_tenant_swaps_total{tenant=\"b\"} 3"))));
  ]

let suite =
  [
    ("server.batcher", batcher_tests);
    ("server.http", http_tests);
    ("server.e2e", e2e_tests);
    ("server.swap_live", swap_live_tests);
    ("server.tenants", tenant_tests);
  ]
