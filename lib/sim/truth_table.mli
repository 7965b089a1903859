(** Compiled truth tables of catalog cells.

    The event simulator evaluates gates millions of times per run; calling
    a cell's [bool list -> bool list] logic closure each time allocates and
    dominates the kernel.  A compiled table turns one evaluation into an
    array read: entry [i] is the output bitmask (bit [o] set iff output [o]
    is high) for the input vector whose pin [p] (in cell pin order) is bit
    [p] of [i]. *)

val max_inputs : int
(** Widest cell a table supports (the catalog's widest has 4 inputs). *)

val of_cell : Aging_cells.Cell.t -> int array
(** The [2^k]-entry table of a [k]-input cell.
    @raise Failure naming the cell if it has more than {!max_inputs}
    inputs, or if its logic returns a different number of outputs than it
    declares. *)
