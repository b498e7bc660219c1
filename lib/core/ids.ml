type proc_id = int

type task_id = int

let super_root = -1

let no_task = -1

let proc_to_string p = if p = super_root then "SR" else Printf.sprintf "P%d" p
