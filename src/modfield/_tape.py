"""The reverse stage sweep: the discrete adjoint of one training step.

A step ``y + sum_i (h b_i) k_i`` with stages ``k_i = f(y_i, h)`` at
``y_i = y + sum_{j<i} (h a_ij) k_j`` is differentiated stage by stage,
latest first (Hager 2000, Numer. Math.; Sanz-Serna 2016, SIAM Review):

    kbar_i = (h b_i) gbar + sum_{l>i} (h a_li) ybar_l,

where ``gbar`` is the gradient at the step's output and ``ybar_l`` the
gradient at stage ``l``'s input, which the field's vector-Jacobian
product returns.  The forward step records one such product per field
evaluation (``ModifiedFieldModel.eval``); the sweep calls them in reverse
and sums their parameter gradients in that order.
"""


def backward(a, b, hc, vjps, g):
    """Parameter gradient of a step whose output has gradient ``g``.

    ``a`` and ``b`` are the step's stage coefficients, ``hc`` the steps as
    a column, and ``vjps`` the field's recorded vector-Jacobian products
    in evaluation order: ``vjps[i](kbar, wrt_y)`` returns the parameter
    gradient of stage ``i`` and, when ``wrt_y``, the gradient at its
    input.  Zero coefficients are skipped, as in the forward step, the
    code ``integrators._stage_source`` emits from the same tableau.
    """
    kbar = [g * (hc * bi) if bi != 0.0 else None for bi in b]
    grad = None
    for i in range(len(vjps) - 1, -1, -1):
        if kbar[i] is None:
            continue
        deps = [j for j in range(i) if a[i, j] != 0.0]
        gi, gy = vjps[i](kbar[i], bool(deps))
        grad = gi if grad is None else grad + gi
        for j in deps:
            gj = gy * (hc * a[i, j])
            kbar[j] = gj if kbar[j] is None else kbar[j] + gj
    return grad
