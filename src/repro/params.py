"""Named device parameters, corner grids, and Monte-Carlo samplers.

The DAC'12 flow reduces *one* circuit; real verification sweeps a
*family* — process corners and Monte-Carlo mismatch draws of the same
topology.  This module gives :class:`~repro.circuits.netlist.Netlist`
a typed parameter layer:

* :class:`Parameter` names a numeric device field (e.g. the ladder's
  series resistance) bound to one or more device sites, with a nominal
  value, an optional ``[low, high]`` corner range and an optional
  relative ``sigma`` for Gaussian mismatch draws.
* :func:`materialize` turns ``{name: value}`` assignments into a fresh
  concrete netlist via ``dataclasses.replace`` on the bound devices —
  every corner re-runs the device constructors, so invalid values fail
  with the same :class:`~repro.errors.ValidationError` a hand-built
  netlist would raise.
* :class:`ParameterGrid` materializes the cartesian corner grid (C
  order over axes in declaration order) and knows the grid topology —
  flat/multi index maps and axis neighbors — which the parametric
  reduction job uses to pick interpolation anchors.
* :class:`MonteCarloSampler` draws concrete value assignments from an
  explicitly seeded :func:`numpy.random.default_rng`; the seed is
  recorded on the sampler and in every report so a distribution can be
  reproduced bit-for-bit.

Because a parameter only changes device *values* (never the stamp
pattern), every corner of a grid shares one structural fingerprint —
:func:`structural_fingerprint` asserts this, and the reuse tiers of
:class:`~repro.pipeline.ParametricReductionJob` rely on it.
"""

import dataclasses

import numpy as np

from .errors import ValidationError

__all__ = [
    "MonteCarloSampler",
    "Parameter",
    "ParameterGrid",
    "materialize",
    "structural_fingerprint",
]

#: Numeric device fields a parameter may bind to.  Topology fields
#: (node indices) are deliberately excluded: a parameter must never be
#: able to change the stamp pattern.
_BINDABLE_EXCLUDE = {"node_pos", "node_neg"}


def _as_float(value, what):
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    if not np.isfinite(out):
        raise ValidationError(f"{what} must be finite, got {out!r}")
    return out


@dataclasses.dataclass(frozen=True)
class Parameter:
    """A named numeric knob bound to device sites of a netlist.

    Parameters
    ----------
    name : str
        Unique parameter name (the key in value assignments).
    field : str
        Device dataclass field the parameter drives (``resistance``,
        ``capacitance``, ``alpha``, ...).
    devices : tuple of int
        Indices into ``netlist.devices`` of the bound sites; every
        site receives the same value.
    nominal : float
        Default value (used when an assignment omits the parameter).
    low, high : float, optional
        Corner range for grid sweeps; both required to put the
        parameter on a :class:`ParameterGrid` axis.
    sigma : float, optional
        Relative standard deviation for Monte-Carlo draws: samples are
        ``normal(nominal, sigma * |nominal|)`` clipped to
        ``[low, high]`` when a range is given.
    """

    name: str
    field: str
    devices: tuple
    nominal: float
    low: float = None
    high: float = None
    sigma: float = None

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValidationError("parameter name must be a non-empty string")
        if not self.field or not isinstance(self.field, str):
            raise ValidationError(
                f"parameter {self.name!r}: field must be a non-empty string"
            )
        if self.field in _BINDABLE_EXCLUDE:
            raise ValidationError(
                f"parameter {self.name!r} may not bind topology field "
                f"{self.field!r}"
            )
        try:
            sites = tuple(int(i) for i in self.devices)
        except (TypeError, ValueError):
            raise ValidationError(
                f"parameter {self.name!r}: devices must be a sequence of "
                f"integer indices, got {self.devices!r}"
            )
        if not sites:
            raise ValidationError(
                f"parameter {self.name!r} binds no device sites"
            )
        object.__setattr__(self, "devices", sites)
        object.__setattr__(
            self, "nominal", _as_float(self.nominal, f"{self.name}.nominal")
        )
        for bound in ("low", "high", "sigma"):
            value = getattr(self, bound)
            if value is not None:
                object.__setattr__(
                    self, bound, _as_float(value, f"{self.name}.{bound}")
                )
        if (self.low is None) != (self.high is None):
            raise ValidationError(
                f"parameter {self.name!r}: low and high must be given "
                "together"
            )
        if self.low is not None:
            if self.low > self.high:
                raise ValidationError(
                    f"parameter {self.name!r}: low ({self.low}) exceeds "
                    f"high ({self.high})"
                )
            if not (self.low <= self.nominal <= self.high):
                raise ValidationError(
                    f"parameter {self.name!r}: nominal {self.nominal} "
                    f"outside [{self.low}, {self.high}]"
                )
        if self.sigma is not None and self.sigma < 0:
            raise ValidationError(
                f"parameter {self.name!r}: sigma must be >= 0"
            )

    # -- range helpers ------------------------------------------------------

    @property
    def has_range(self):
        return self.low is not None

    def grid_values(self, points):
        """``points`` evenly spaced values across ``[low, high]``."""
        points = int(points)
        if points < 1:
            raise ValidationError(
                f"parameter {self.name!r}: grid needs >= 1 point"
            )
        if not self.has_range:
            raise ValidationError(
                f"parameter {self.name!r} has no [low, high] range; it "
                "cannot form a grid axis"
            )
        if points == 1:
            return np.array([self.nominal])
        return np.linspace(self.low, self.high, points)

    def draw(self, rng):
        """One Monte-Carlo value from the recorded-seed generator."""
        if self.sigma is not None and self.sigma > 0:
            value = self.nominal + self.sigma * abs(self.nominal) * float(
                rng.standard_normal()
            )
            if self.has_range:
                value = min(max(value, self.low), self.high)
            return value
        if self.has_range:
            return float(rng.uniform(self.low, self.high))
        return self.nominal

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        data = {
            "name": self.name,
            "field": self.field,
            "devices": list(self.devices),
            "nominal": self.nominal,
        }
        for bound in ("low", "high", "sigma"):
            value = getattr(self, bound)
            if value is not None:
                data[bound] = value
        return data

    @classmethod
    def coerce(cls, data):
        """Build a :class:`Parameter` from a dict (or pass one through)."""
        if isinstance(data, cls):
            return data
        if not isinstance(data, dict):
            raise ValidationError(
                f"parameter spec must be a dict, got {type(data).__name__}"
            )
        unknown = set(data) - {
            "name", "field", "devices", "nominal", "low", "high", "sigma"
        }
        if unknown:
            raise ValidationError(
                f"unknown parameter keys: {sorted(unknown)}"
            )
        try:
            return cls(
                name=data["name"],
                field=data["field"],
                devices=tuple(data["devices"]),
                nominal=data["nominal"],
                low=data.get("low"),
                high=data.get("high"),
                sigma=data.get("sigma"),
            )
        except KeyError as exc:
            raise ValidationError(f"parameter spec missing key {exc}")


def check_bindings(netlist, parameters):
    """Validate *parameters* against *netlist* device sites.

    Raises :class:`~repro.errors.ValidationError` on duplicate names,
    out-of-range device indices, unknown fields, or non-numeric bound
    fields.  Returns the parameters as a tuple.
    """
    params = tuple(Parameter.coerce(p) for p in parameters)
    seen = set()
    for param in params:
        if param.name in seen:
            raise ValidationError(f"duplicate parameter name {param.name!r}")
        seen.add(param.name)
        for idx in param.devices:
            if not 0 <= idx < len(netlist.devices):
                raise ValidationError(
                    f"parameter {param.name!r}: device index {idx} out of "
                    f"range (netlist has {len(netlist.devices)} devices)"
                )
            device = netlist.devices[idx]
            fields = {f.name for f in dataclasses.fields(device)}
            if param.field not in fields:
                raise ValidationError(
                    f"parameter {param.name!r}: device {idx} "
                    f"({type(device).__name__}) has no field "
                    f"{param.field!r}"
                )
            current = getattr(device, param.field)
            if not isinstance(current, (int, float, np.floating)):
                raise ValidationError(
                    f"parameter {param.name!r}: field {param.field!r} of "
                    f"device {idx} is not numeric"
                )
    return params


def materialize(netlist, values=None, check=True):
    """A concrete netlist with parameter *values* applied.

    Unassigned parameters take their nominal value; unknown names in
    *values* raise.  The result is a plain netlist (no parameter
    annotations) sharing nothing mutable with the source.
    """
    params = getattr(netlist, "parameters", ())
    values = dict(values or {})
    unknown = set(values) - {p.name for p in params}
    if unknown:
        raise ValidationError(
            f"unknown parameter names in assignment: {sorted(unknown)}"
        )
    if check:
        check_bindings(netlist, params)
    assignments = {}
    for param in params:
        value = _as_float(
            values.get(param.name, param.nominal), f"value of {param.name!r}"
        )
        for idx in param.devices:
            assignments.setdefault(idx, {})[param.field] = value
    concrete = type(netlist)(name=netlist.name)
    for idx, device in enumerate(netlist.devices):
        replaced = assignments.get(idx)
        if replaced:
            try:
                device = dataclasses.replace(device, **replaced)
            except (TypeError, ValueError, ValidationError) as exc:
                raise ValidationError(
                    f"materializing device {idx} "
                    f"({type(device).__name__}): {exc}"
                )
        concrete._register(device)
        if hasattr(device, "input_index"):
            concrete._n_inputs = max(
                concrete._n_inputs, device.input_index + 1
            )
    concrete._n_nodes = max(concrete._n_nodes, netlist.n_nodes)
    if netlist.output_nodes is not None:
        concrete.set_output_nodes(netlist.output_nodes)
    return concrete


def structural_fingerprint(netlist, values=None, sparse=None):
    """Structural digest of the compiled system at *values*.

    Parameters drive device values only, so every assignment of a
    well-formed parametric netlist shares one digest — the invariant
    the parametric job's reuse tiers (shared symbolic LU, warm-started
    bases, ROM interpolation) rest on.  A value that changes assembled
    *structure* (e.g. a capacitance crossing the mass≈identity drop)
    yields a different digest, and the job falls back to cold
    reductions for it.
    """
    from .circuits.mna import structural_digest

    system = materialize(netlist, values).compile(sparse=sparse)
    return structural_digest(system)


class ParameterGrid:
    """Cartesian corner grid over a parametric netlist's ranged axes.

    Axes are the netlist's parameters *with ranges*, in declaration
    order; corners enumerate in C order (last axis fastest).  ``points``
    is an int (every axis) or a ``{name: int}`` mapping.
    """

    def __init__(self, netlist, points=3):
        params = check_bindings(netlist, getattr(netlist, "parameters", ()))
        if not params:
            raise ValidationError(
                "netlist has no parameters; annotate it with "
                "Netlist.with_params first"
            )
        axes = [p for p in params if p.has_range]
        if not axes:
            raise ValidationError(
                "no parameter has a [low, high] range; a grid needs at "
                "least one axis"
            )
        if isinstance(points, dict):
            unknown = set(points) - {p.name for p in axes}
            if unknown:
                raise ValidationError(
                    f"grid points given for non-axis parameters: "
                    f"{sorted(unknown)}"
                )
            counts = [int(points.get(p.name, 3)) for p in axes]
        else:
            counts = [int(points)] * len(axes)
        self.netlist = netlist
        self.axes = tuple(
            (param, param.grid_values(count))
            for param, count in zip(axes, counts)
        )
        self.shape = tuple(values.size for _, values in self.axes)
        self._fixed = {
            p.name: p.nominal for p in params if not p.has_range
        }

    def __len__(self):
        return int(np.prod(self.shape))

    # -- index topology -----------------------------------------------------

    def multi_index(self, flat):
        flat = int(flat)
        if not 0 <= flat < len(self):
            raise ValidationError(
                f"corner index {flat} out of range [0, {len(self)})"
            )
        return tuple(int(i) for i in np.unravel_index(flat, self.shape))

    def flat_index(self, multi):
        return int(np.ravel_multi_index(tuple(multi), self.shape))

    def corner_values(self, index):
        """``{name: value}`` at a flat or multi corner index."""
        multi = (
            self.multi_index(index)
            if np.isscalar(index)
            else tuple(int(i) for i in index)
        )
        values = dict(self._fixed)
        for (param, axis), pos in zip(self.axes, multi):
            values[param.name] = float(axis[pos])
        return values

    def corners(self):
        """All corner assignments, flat C order."""
        return [self.corner_values(flat) for flat in range(len(self))]

    def interp_schedule(self):
        """Corners in reduction waves: ``[[(flat, pair), ...], ...]``.

        An axis position is an *anchor position* when it is even or the
        axis endpoint (which cannot be bracketed).  A corner's wave is
        the number of its non-anchor positions; wave-0 corners carry
        ``pair=None`` and must be reduced outright, while a wave-k
        corner (k >= 1) comes with the flat indices of the two corners
        bracketing it along its first non-anchor axis — both one wave
        earlier, hence already completed when the job reaches it.  The
        parametric job reduces wave by wave, attempting residual-checked
        interpolation from each corner's pair before falling back to a
        real reduction.
        """

        def is_anchor(pos, size):
            return pos % 2 == 0 or pos == size - 1

        waves = {}
        for flat in range(len(self)):
            multi = self.multi_index(flat)
            wave = sum(
                0 if is_anchor(p, s) else 1
                for p, s in zip(multi, self.shape)
            )
            pair = None
            if wave:
                for axis, (p, s) in enumerate(zip(multi, self.shape)):
                    if not is_anchor(p, s):
                        left = list(multi)
                        right = list(multi)
                        left[axis] = p - 1
                        right[axis] = p + 1
                        pair = (
                            self.flat_index(left),
                            self.flat_index(right),
                        )
                        break
            waves.setdefault(wave, []).append((flat, pair))
        return [waves[k] for k in sorted(waves)]

    def nearest(self, values, exclude=()):
        """Flat index of the corner closest to *values* (normalized).

        Distances are measured per axis in units of the axis span, so
        heterogeneous parameter scales compare fairly.  ``exclude``
        skips flat indices (e.g. corners that failed to reduce).
        """
        excluded = set(int(i) for i in exclude)
        best, best_dist = None, np.inf
        for flat in range(len(self)):
            if flat in excluded:
                continue
            corner = self.corner_values(flat)
            dist = 0.0
            for param, axis in self.axes:
                span = float(axis[-1] - axis[0]) or 1.0
                target = float(values.get(param.name, param.nominal))
                dist += ((corner[param.name] - target) / span) ** 2
            if dist < best_dist:
                best, best_dist = flat, dist
        if best is None:
            raise ValidationError("no grid corner available")
        return best

    def bracket(self, values, exclude=()):
        """Two nearest distinct corners to *values* (for interpolation)."""
        first = self.nearest(values, exclude=exclude)
        if len(self) - len(set(exclude)) < 2:
            return first, first
        second = self.nearest(values, exclude=set(exclude) | {first})
        return first, second

    def materialize(self, index):
        """Concrete netlist at a flat or multi corner index."""
        return materialize(self.netlist, self.corner_values(index))

    def describe(self):
        return {
            "shape": list(self.shape),
            "axes": [
                {"name": param.name, "values": [float(v) for v in axis]}
                for param, axis in self.axes
            ],
            "corners": len(self),
        }


class MonteCarloSampler:
    """Explicitly seeded Monte-Carlo assignments over a parametric netlist.

    All *draws* are computed eagerly at construction from
    ``numpy.random.default_rng(seed)``; the seed is recorded on the
    sampler and belongs in every downstream report.
    """

    def __init__(self, netlist, draws, seed):
        self.params = check_bindings(
            netlist, getattr(netlist, "parameters", ())
        )
        if not self.params:
            raise ValidationError(
                "netlist has no parameters; annotate it with "
                "Netlist.with_params first"
            )
        draws = int(draws)
        if draws < 0:
            raise ValidationError("draw count must be >= 0")
        self.netlist = netlist
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.samples = [
            {param.name: float(param.draw(rng)) for param in self.params}
            for _ in range(draws)
        ]

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def materialize(self, index):
        return materialize(self.netlist, self.samples[int(index)])

    def describe(self):
        return {"draws": len(self.samples), "seed": self.seed}
