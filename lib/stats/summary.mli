(** Summary statistics for benchmark reporting. *)

val mean : float array -> float
val stddev : float array -> float
val quantile : float array -> float -> float
(** [quantile a q], [q] in \[0, 1\]: linear interpolation between the
    order statistics of [a] ([0.] the minimum, [1.] the maximum). *)

val median : float array -> float
val min : float array -> float
val max : float array -> float
