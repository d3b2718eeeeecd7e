(* Kernel backend resolution under a race: several domains make the
   process's first kernel call at the same instant. Each trial runs in a
   fresh child process (this executable re-run with [--child]), because
   only the first resolution in a process can race. *)

open Prom_linalg

let domains = 4
let trials = 25

(* Child: release [domains] domains from a spin barrier so they all
   resolve the backend at once; print one outcome per domain. *)
let child () =
  let ready = Atomic.make 0 and go = Atomic.make false in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            match Kernels.active_name () with
            | name -> name
            | exception Invalid_argument _ -> "invalid_argument"
            | exception e -> "raised " ^ Printexc.to_string e))
  in
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  List.iter (fun d -> print_endline (Domain.join d)) ds;
  exit 0

(* Run one child with [PROM_KERNELS] set as given (or unset) and return
   its exit status and output lines. *)
let run_child setting =
  let env =
    Array.of_list
      ((match setting with Some v -> [ "PROM_KERNELS=" ^ v ] | None -> [])
      @ List.filter
          (fun kv -> not (String.starts_with ~prefix:"PROM_KERNELS=" kv))
          (Array.to_list (Unix.environment ())))
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name; "--child" |]
      env Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let outs = lines [] in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, outs)

let check_trials setting expected =
  for _ = 1 to trials do
    let status, outs = run_child setting in
    Alcotest.(check bool) "child exited 0" true (status = Unix.WEXITED 0);
    Alcotest.(check (list string)) "every domain" (List.init domains (fun _ -> expected)) outs
  done

let tests =
  [
    Alcotest.test_case "four domains resolve the backend at once" `Quick (fun () ->
        check_trials None (if Kernels.available Simd then "simd" else "c"));
    Alcotest.test_case "an explicit backend resolves alike in every domain" `Quick (fun () ->
        check_trials (Some "c") "c");
    Alcotest.test_case "unknown PROM_KERNELS raises Invalid_argument on first use" `Quick
      (fun () -> check_trials (Some "bogus") "invalid_argument");
  ]

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--child" then child ()
  else Alcotest.run "prom_kernels_race" [ ("kernels.race", tests) ]
