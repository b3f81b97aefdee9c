"""Parameterized generators for the paper's benchmark circuits.

These rebuild the four experimental testbenches of §3:

* :func:`nonlinear_transmission_line` — the diode RC line of §3.1/§3.2.
  With a (Thevenin) voltage source and a diode at the input node, the
  lifted QLDAE carries a ``D1`` term (§3.1, Fig. 2); with a current
  source into a diode-free input node, ``D1 = 0`` exactly (§3.2, Fig. 3).
* :func:`quadratic_rc_ladder` — a directly-quadratic QLDAE (no lifting).
* :func:`rf_receiver_chain` — the §3.3 MISO receiver: signal input plus
  an interferer coupled mid-chain, quadratic stage nonlinearities.
* :func:`varistor_surge_protector` — the §3.4 ZnO varistor circuit: an
  RLC surge path with cubic varistor clamps (a CubicODE).
"""

import numpy as np

from .._validation import check_positive_int
from ..errors import ValidationError
from .netlist import Netlist

__all__ = [
    "nonlinear_transmission_line",
    "quadratic_rc_ladder",
    "quadratic_rc_ladder_netlist",
    "rf_receiver_chain",
    "varistor_surge_protector",
]


def nonlinear_transmission_line(
    n_nodes=100,
    source="voltage",
    diode_at_input=True,
    diode_start=1,
    r=1.0,
    c=1.0,
    i_s=1.0,
    kappa=40.0,
    output_node=1,
):
    """The paper's nonlinear transmission line (Figs. 2-3).

    ``n_nodes`` RC sections; unit resistors between neighbours and from
    node 1 to ground, unit capacitors at every node, and diodes
    ``i = i_s (e^{kappa v} − 1)`` in parallel with the chain resistors
    starting at ``diode_start``; optionally one more diode from node 1 to
    ground.

    Parameters
    ----------
    source : {"voltage", "current"}
        ``"voltage"`` models the paper's §3.1 drive as a Thevenin pair
        (source resistor ``r`` + scaled current source): the lifted QLDAE
        then has ``D1 ≠ 0``.  ``"current"`` injects directly into node 1.
    diode_at_input : bool
        Extra diode from node 1 to ground.  Set False (with
        ``diode_start=2``) so no exponential touches the input node —
        the lifted QLDAE then has ``D1 = 0`` exactly (§3.2).
    output_node : int
        Observed node voltage (default: the input node, the quantity the
        paper plots).

    Returns
    -------
    ExponentialODE — call ``.quadratic_linearize()`` for the QLDAE whose
    dimension is ``n_nodes + #diodes``.
    """
    n_nodes = check_positive_int(n_nodes, "n_nodes")
    if n_nodes < 3:
        raise ValidationError("need at least 3 nodes")
    if source not in ("voltage", "current"):
        raise ValidationError("source must be 'voltage' or 'current'")
    if diode_start < 1:
        raise ValidationError("diode_start must be >= 1")
    net = Netlist(name=f"ntl-{n_nodes}-{source}")
    net.add_resistor(1, 0, r)
    for k in range(1, n_nodes):
        net.add_resistor(k, k + 1, r)
    for k in range(1, n_nodes + 1):
        net.add_capacitor(k, 0, c)
    if diode_at_input:
        net.add_diode(1, 0, i_s=i_s, kappa=kappa)
    for k in range(diode_start, n_nodes):
        net.add_diode(k, k + 1, i_s=i_s, kappa=kappa)
    if source == "voltage":
        net.add_voltage_source_thevenin(1, r)
    else:
        net.add_current_source(1, 0)
    net.set_output_nodes([output_node])
    return net.compile()


def quadratic_rc_ladder_netlist(
    n_nodes=70,
    r=1.0,
    c=1.0,
    g_leak=0.1,
    g_quad=0.5,
    output_node=None,
    quad_nodes=None,
):
    """The :func:`quadratic_rc_ladder` circuit as an uncompiled netlist.

    Exposed separately so the sparse-path benchmark and tests can compile
    the *same* stamps with both ``sparse=True`` and ``sparse=False``.

    ``quad_nodes`` restricts the quadratic conductances to the first that
    many nodes (default: every node).  A ladder with a handful of
    nonlinear cells has a ``G2`` of bounded tensor rank independent of
    ``n`` — the regime where the circuit-scale low-rank Π / lifted-chain
    machinery of :mod:`repro.linalg.sylvester` applies.  Combined with a
    strong leak (``g_leak`` of order 1) and weak coupling (``r`` of
    order 10) the state matrix's spectral spread stays below 2×, which
    keeps the eq.-(18) Π equation well-separated
    (``λ_i − λ_j − λ_k`` bounded away from zero) — the same conditioning
    the dense decoupled path implicitly relies on.
    """
    n_nodes = check_positive_int(n_nodes, "n_nodes")
    if n_nodes < 2:
        raise ValidationError("need at least 2 nodes")
    if quad_nodes is None:
        quad_nodes = n_nodes
    quad_nodes = check_positive_int(quad_nodes, "quad_nodes")
    quad_nodes = min(quad_nodes, n_nodes)
    net = Netlist(name=f"quad-ladder-{n_nodes}")
    for k in range(1, n_nodes):
        net.add_resistor(k, k + 1, r)
    net.add_resistor(1, 0, r)
    for k in range(1, n_nodes + 1):
        net.add_capacitor(k, 0, c)
        if k <= quad_nodes:
            net.add_conductance(k, 0, g1=g_leak, g2=g_quad)
        elif g_leak:
            net.add_resistor(k, 0, 1.0 / g_leak)
    net.add_current_source(1, 0)
    net.set_output_nodes([output_node or 1])
    return net


def quadratic_rc_ladder(
    n_nodes=70,
    r=1.0,
    c=1.0,
    g_leak=0.1,
    g_quad=0.5,
    output_node=None,
):
    """RC ladder with quadratic shunt conductances — a native QLDAE.

    Every node has a capacitor and a weakly nonlinear conductance
    ``i = g_leak v + g_quad v²`` to ground; a current source drives node
    1.  No lifting, no ``D1`` — the simplest nontrivial QLDAE and the
    default system for tests and the quickstart example.

    The default observable is the *input* node: far-end nodes of a long
    leaky RC ladder sit at sub-nanovolt levels (pure diffusion) and make
    meaningless references for relative error.
    """
    return quadratic_rc_ladder_netlist(
        n_nodes,
        r=r,
        c=c,
        g_leak=g_leak,
        g_quad=g_quad,
        output_node=output_node,
    ).compile()


def rf_receiver_chain(
    n_nodes=173,
    path_nodes=12,
    interferer_gain=0.5,
    r_path=0.5,
    r_branch=2.0,
    c=1.0,
    c_branch=0.2,
    g_leak=0.05,
    lna_gain2=0.4,
    mixer_gain2=0.6,
    pa_gain2=0.2,
):
    """The §3.3 MISO receiver: signal ``u1`` plus coupled interferer ``u2``.

    Topology: a short signal path of ``path_nodes`` RC sections carrying
    the three stage nonlinearities (LNA / mixer / PA shunt conductances
    with different quadratic coefficients), with RC side-branches
    ("bias/matching networks") hanging off every path node to bring the
    total state count to exactly ``n_nodes``.  The short path keeps the
    output observable at signal frequencies — a 173-node *series* chain
    would be a pure diffusion line with ~1e-6 through-gain, which no
    moment-matched ROM (and no physical receiver) resembles.

    The interferer couples into the input of the PA stage (paper Fig. 4a:
    noise ``u2`` coupled from the environment).  The compiled system is a
    two-input QLDAE with ``D1 = 0`` and 173 states by default.
    """
    n_nodes = check_positive_int(n_nodes, "n_nodes")
    path_nodes = check_positive_int(path_nodes, "path_nodes")
    if path_nodes < 3:
        raise ValidationError("need at least 3 path nodes")
    if n_nodes < path_nodes:
        raise ValidationError("n_nodes must be >= path_nodes")
    third = max(path_nodes // 3, 1)
    net = Netlist(name=f"rf-receiver-{n_nodes}")
    net.add_resistor(1, 0, r_path)
    for k in range(1, path_nodes):
        net.add_resistor(k, k + 1, r_path)
    for k in range(1, path_nodes + 1):
        net.add_capacitor(k, 0, c)
        if k <= third:
            g2 = lna_gain2
        elif k <= 2 * third:
            g2 = mixer_gain2
        else:
            g2 = pa_gain2
        net.add_conductance(k, 0, g1=g_leak, g2=g2)
    # Side branches: distribute the remaining states as RC chains hanging
    # off the path nodes (round-robin), like bias tees / matching stubs.
    n_branch = n_nodes - path_nodes
    branch_tip = {k: k for k in range(1, path_nodes + 1)}
    next_node = path_nodes + 1
    for idx in range(n_branch):
        anchor = 1 + (idx % path_nodes)
        tip = branch_tip[anchor]
        net.add_resistor(tip, next_node, r_branch)
        net.add_capacitor(next_node, 0, c_branch)
        branch_tip[anchor] = next_node
        next_node += 1
    pa_input = 2 * third + 1
    net.add_current_source(1, 0, input_index=0)
    net.add_current_source(
        pa_input, 0, input_index=1, gain=interferer_gain
    )
    net.set_output_nodes([path_nodes])
    return net.compile()


def varistor_surge_protector(
    n_states=102,
    path_nodes=4,
    inductance=0.1,
    capacitance=1.0,
    damping_resistance=0.5,
    g_leak=0.1,
    varistor_g1=1e-3,
    varistor_g3=1e-4,
    branch_resistance=5.0,
    branch_capacitance=0.3,
    source_resistance=50.0,
    n_sections=None,
    output_node=None,
):
    """The §3.4 ZnO varistor surge-protection circuit (a CubicODE).

    Mirrors the paper's Fig. 5(a): a *short* L-R surge path
    (L1/R1 ... node V1 ... L2/R2 ... node V2) with cubic varistor clamps
    ``i = g1 v + g3 v³`` at the protected nodes and an inductive consumer
    load, plus RC branch networks (distributed consumer/parasitic loads)
    hanging off every path node to bring the state count up to
    ``n_states`` — 102 by default, matching the paper.  A long LC
    *ladder* would be a delay line whose transfer function no low-order
    moment-matched ROM can represent; the paper's order-8 ROM implies
    intrinsically low-order dominant dynamics like these.

    The surge (paper: US = 9.8 kV) enters through a Thevenin source
    resistor Ri.  Damping resistors sit across the path inductors (the
    R1/R2 of the IEEE varistor model).

    ``n_sections`` is accepted as a legacy alias: the historical
    ladder-style constructor used section counts; ``n_sections=51``
    maps to the default 102 states.
    """
    if n_sections is not None:
        n_states = 2 * n_sections
    n_states = check_positive_int(n_states, "n_states")
    path_nodes = check_positive_int(path_nodes, "path_nodes")
    if path_nodes < 2:
        raise ValidationError("need at least 2 path nodes")
    # States: path nodes + branch nodes + (path_nodes-1) chain inductors
    # + 1 load inductor.
    n_branch = n_states - 2 * path_nodes
    if n_branch < 0:
        raise ValidationError(
            f"n_states={n_states} too small for {path_nodes} path nodes"
        )
    net = Netlist(name=f"varistor-{n_states}")
    for k in range(1, path_nodes):
        net.add_inductor(k, k + 1, inductance)
        # R ∥ L damping (the paper's R1/R2 series losses).
        net.add_resistor(k, k + 1, damping_resistance)
    for k in range(1, path_nodes + 1):
        net.add_capacitor(k, 0, capacitance)
        net.add_resistor(k, 0, 1.0 / g_leak)
    # Varistor clamps at the protected (downstream) half of the path.
    for k in range(max(path_nodes // 2 + 1, 2), path_nodes + 1):
        net.add_conductance(k, 0, g1=varistor_g1, g3=varistor_g3)
    # Distributed consumer/parasitic RC branches (round-robin).
    branch_tip = {k: k for k in range(1, path_nodes + 1)}
    next_node = path_nodes + 1
    for idx in range(n_branch):
        anchor = 1 + (idx % path_nodes)
        tip = branch_tip[anchor]
        net.add_resistor(tip, next_node, branch_resistance)
        net.add_capacitor(next_node, 0, branch_capacitance)
        branch_tip[anchor] = next_node
        next_node += 1
    # Inductive consumer load hanging off the protected node.
    net.add_inductor(path_nodes, 0, 10.0 * inductance)
    net.add_voltage_source_thevenin(1, source_resistance)
    net.set_output_nodes([output_node or path_nodes])
    return net.compile()
