(* Deterministic simulation testing CLI.

   Examples:
     dune exec bin/mrcp_dst.exe -- --seed 1 --count 50
     dune exec bin/mrcp_dst.exe -- --seed 7 --mutate drop-attempt-failed
     dune exec bin/mrcp_dst.exe -- --replay dst-repro-7.json

   Exit 0 when every scenario passes; 1 on a violation (after shrinking it
   to a minimal repro and writing a replayable JSON file); 2 on usage
   errors, among them a --replay file that cannot be loaded.  Fully
   deterministic: the same --seed/--count always explores the same
   scenarios and produces byte-identical journals. *)

open Cmdliner

let mutation_conv =
  Arg.enum
    [
      ("none", Dst.No_mutation);
      ("drop-attempt-failed", Dst.Drop_attempt_failed);
      ("drop-resource-lost", Dst.Drop_resource_lost);
    ]

let report_violation ~mutation ~shrink_fuel ~no_shrink ~out scenario message =
  Printf.printf "VIOLATION (seed %d): %s\n" scenario.Dst.seed message;
  let minimal, violation =
    if no_shrink then (scenario, message)
    else begin
      let r = Dst.shrink ~mutation ~fuel:shrink_fuel scenario ~violation:message in
      Printf.printf
        "shrunk: %d reduction steps over %d runs -> %d jobs, %d faults\n"
        r.Dst.steps r.Dst.runs
        (List.length r.Dst.minimal.Dst.jobs)
        (List.length r.Dst.minimal.Dst.faults);
      (r.Dst.minimal, r.Dst.violation)
    end
  in
  let path =
    match out with
    | Some p -> p
    | None -> Printf.sprintf "dst-repro-%d.json" scenario.Dst.seed
  in
  Dst.save minimal ~path;
  Format.printf "%a@." Dst.pp_scenario minimal;
  Printf.printf "minimal violation: %s\nrepro written to %s\n" violation path

let run seed count shrink_fuel no_shrink out replay mutation expect_violation =
  let check_one scenario =
    match Dst.check ~mutation scenario with
    | Dst.Pass { fingerprint } ->
        Printf.printf "seed %d: ok (journal %s)\n%!" scenario.Dst.seed
          fingerprint;
        true
    | Dst.Violation { message } ->
        report_violation ~mutation ~shrink_fuel ~no_shrink ~out scenario message;
        false
  in
  let verdict =
    match replay with
    | Some path -> (
        match Dst.load ~path with
        | Error msg -> Error (Printf.sprintf "error loading %s: %s" path msg)
        | Ok scenario ->
            Format.printf "replaying %s:@ %a@." path Dst.pp_scenario scenario;
            Ok (check_one scenario))
    | None ->
        let ok = ref true in
        (try
           for i = 0 to count - 1 do
             if not (check_one (Dst.generate ~seed:(seed + i))) then begin
               ok := false;
               raise Exit
             end
           done
         with Exit -> ());
        Ok !ok
  in
  (* --expect-violation (mutation self-test): invert the verdict, so CI can
     assert that a deliberately broken manager is caught.  A repro file that
     does not load is a usage error either way. *)
  match (verdict, expect_violation) with
  | Error msg, _ ->
      prerr_endline msg;
      2
  | Ok ok, false -> if ok then 0 else 1
  | Ok false, true ->
      print_endline "expected violation found";
      0
  | Ok true, true ->
      prerr_endline "error: expected a violation but every scenario passed";
      1

let term =
  Term.(
    const run
    $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base scenario seed.")
    $ Arg.(value & opt int 20
           & info [ "count" ]
               ~doc:"Number of scenarios (seeds seed..seed+count-1).")
    $ Arg.(value & opt int 400
           & info [ "shrink-fuel" ]
               ~doc:"Max simulations to spend shrinking a violation.")
    $ Arg.(value & flag
           & info [ "no-shrink" ]
               ~doc:"Report the raw violating scenario without shrinking.")
    $ Arg.(value & opt (some string) None
           & info [ "out" ] ~doc:"Repro file path (default dst-repro-SEED.json).")
    $ Arg.(value & opt (some string) None
           & info [ "replay" ] ~doc:"Re-check a saved repro file instead of generating.")
    $ Arg.(value & opt mutation_conv Dst.No_mutation
           & info [ "mutate" ]
               ~doc:"Deliberately break a manager invariant (none, \
                     drop-attempt-failed, drop-resource-lost) to self-test \
                     the oracle.")
    $ Arg.(value & flag
           & info [ "expect-violation" ]
               ~doc:"Invert the exit status: succeed only if a violation was \
                     found (for mutation self-tests in CI)."))

let cmd =
  Cmd.v
    (Cmd.info "mrcp_dst"
       ~doc:"Deterministic simulation testing with fault injection, \
             invariant checks and shrinking")
    term

let () = exit (Cmd.eval' cmd)
