let header =
  "job_id,arrival_ms,earliest_start_ms,deadline_ms,task_id,kind,exec_ms,capacity_req"

let to_csv jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun (j : Types.job) ->
      let row (t : Types.task) =
        Buffer.add_string buf
          (Printf.sprintf "%d,%d,%d,%d,%d,%s,%d,%d\n" j.Types.id
             j.Types.arrival j.Types.earliest_start j.Types.deadline
             t.Types.task_id
             (Types.task_kind_to_string t.Types.kind)
             t.Types.exec_time t.Types.capacity_req)
      in
      Array.iter row j.Types.map_tasks;
      Array.iter row j.Types.reduce_tasks)
    jobs;
  Buffer.contents buf

type parsed_row = {
  job_id : int;
  arrival : int;
  earliest_start : int;
  deadline : int;
  task : Types.task;
}

let parse_row ~line_no line =
  let fields = String.split_on_char ',' (String.trim line) in
  let fail msg = Error (Printf.sprintf "line %d: %s" line_no msg) in
  match fields with
  | [ job_id; arrival; est; deadline; task_id; kind; exec_ms; capacity ] -> (
      let int name s =
        match int_of_string_opt (String.trim s) with
        | Some v -> Ok v
        | None -> fail (Printf.sprintf "field %s is not an integer: %S" name s)
      in
      let ( let* ) = Result.bind in
      let* job_id = int "job_id" job_id in
      let* arrival = int "arrival_ms" arrival in
      let* earliest_start = int "earliest_start_ms" est in
      let* deadline = int "deadline_ms" deadline in
      let* task_id = int "task_id" task_id in
      let* exec_time = int "exec_ms" exec_ms in
      let* capacity_req = int "capacity_req" capacity in
      match String.trim kind with
      | "map" | "reduce" ->
          Ok
            {
              job_id;
              arrival;
              earliest_start;
              deadline;
              task =
                {
                  Types.task_id;
                  job_id;
                  kind =
                    (if String.trim kind = "map" then Types.Map_task
                     else Types.Reduce_task);
                  exec_time;
                  capacity_req;
                };
            }
      | other -> fail (Printf.sprintf "unknown task kind %S" other))
  | _ -> fail "expected 8 comma-separated fields"

let of_csv contents =
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' contents
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  match lines with
  | [] -> Error "empty trace"
  | (_, first) :: rest ->
      let* () =
        if first = header then Ok ()
        else Error (Printf.sprintf "bad header: %S" first)
      in
      let* rows =
        List.fold_left
          (fun acc (line_no, line) ->
            let* acc = acc in
            let* row = parse_row ~line_no line in
            Ok (row :: acc))
          (Ok []) rest
      in
      let rows = List.rev rows in
      (* group contiguous rows by job id *)
      let seen_jobs = Hashtbl.create 64 in
      let seen_tasks = Hashtbl.create 256 in
      let* groups =
        List.fold_left
          (fun acc row ->
            let* groups = acc in
            let* () =
              if Hashtbl.mem seen_tasks row.task.Types.task_id then
                Error
                  (Printf.sprintf "duplicate task id %d" row.task.Types.task_id)
              else Ok (Hashtbl.replace seen_tasks row.task.Types.task_id ())
            in
            match groups with
            | (current_id, rows) :: tail when current_id = row.job_id ->
                Ok ((current_id, row :: rows) :: tail)
            | _ ->
                if Hashtbl.mem seen_jobs row.job_id then
                  Error
                    (Printf.sprintf "rows of job %d are not contiguous"
                       row.job_id)
                else begin
                  Hashtbl.replace seen_jobs row.job_id ();
                  Ok ((row.job_id, [ row ]) :: groups)
                end)
          (Ok []) rows
      in
      let* jobs =
        List.fold_left
          (fun acc (job_id, rows) ->
            let* jobs = acc in
            let rows = List.rev rows in
            let first = List.hd rows in
            let* () =
              if
                List.for_all
                  (fun r ->
                    r.arrival = first.arrival
                    && r.earliest_start = first.earliest_start
                    && r.deadline = first.deadline)
                  rows
              then Ok ()
              else
                Error
                  (Printf.sprintf "job %d has inconsistent job-level fields"
                     job_id)
            in
            let tasks kind =
              rows
              |> List.filter_map (fun r ->
                     if r.task.Types.kind = kind then Some r.task else None)
              |> Array.of_list
            in
            let job =
              {
                Types.id = job_id;
                arrival = first.arrival;
                earliest_start = first.earliest_start;
                deadline = first.deadline;
                map_tasks = tasks Types.Map_task;
                reduce_tasks = tasks Types.Reduce_task;
              }
            in
            let* () =
              match Types.validate_job job with
              | Ok () -> Ok ()
              | Error e -> Error (Printf.sprintf "job %d invalid: %s" job_id e)
            in
            Ok (job :: jobs))
          (Ok []) groups
      in
      Ok jobs

let save ~path jobs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv jobs))

let load ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> of_csv contents
  | exception Sys_error msg -> Error msg
