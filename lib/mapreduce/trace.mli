(** Workload (de)serialization: persist generated job streams as CSV traces
    and load them back — so experiments can be pinned to an exact workload
    file, inspected, or fed from externally produced traces.

    Format: one row per task, preceded by a header.

    {v
    job_id,arrival_ms,earliest_start_ms,deadline_ms,task_id,kind,exec_ms,capacity_req
    0,0,0,120000,1,map,20000,1
    0,0,0,120000,2,reduce,40000,1
    ...
    v}

    Rows of a job must be contiguous; job-level fields must agree across a
    job's rows (checked on load). *)

val to_csv : Types.job list -> string
val of_csv : string -> (Types.job list, string) result
(** Parse; returns [Error] with a line-numbered message on malformed input,
    inconsistent job fields, duplicate task ids, or jobs with no tasks. *)

val save : path:string -> Types.job list -> unit
val load : path:string -> (Types.job list, string) result
(** {!of_csv} on the file's contents; [Error] also when the file cannot be
    read. *)
