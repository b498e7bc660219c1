(** Identifier types shared by the recovery structures and the machine.

    Processor ids are small ints assigned by the cluster; {!super_root} is
    the virtual always-alive processor of §4.3.1 that parents every user
    program so that even the root task has a functional checkpoint.  Task
    ids are globally unique (a cluster-wide counter); they identify
    *activations*, so a regenerated task gets a fresh task id but keeps the
    level stamp of the task it replaces. *)

type proc_id = int

type task_id = int

val super_root : proc_id
(** Virtual parent processor of all root tasks; never fails. *)

val no_task : task_id
(** Sentinel for "no such task" (the super-root's own activation). *)

val proc_to_string : proc_id -> string
(** "SR" for the super-root, "P<n>" otherwise. *)
