"""Built-in domain families and JSON domain configs.

Three generators cover the phenomena of interest at desk scale:

* ``grid(n)`` -- conforming n-by-n array of unit squares;
* ``tdomain()`` -- five patches with one T-junction (a wide patch sitting
  on two narrower ones) and one regular four-patch corner;
* ``slider(m, s)`` -- two rows of patches over a rectangle whose upper row
  of cuts is shifted by the fraction ``s``, giving ``2 (m - 1)``
  T-junctions along the sliding line.

All generators impose homogeneous Dirichlet conditions on the whole outer
boundary, use bilinear geometry maps, and discretize each patch with the
single-span space of the requested degree refined uniformly.
"""

import json

import numpy as np

from .bspline import KnotVector, TensorSplineSpace, refine_uniform
from .errors import ConfigError
from .geometry import GeometryMap, Interface, MultiPatchDomain, Patch

#: patches of the built-in T-domain that take the hypothetical jump coefficient
TDOMAIN_JUMP_PATCHES = (1, 3)


def _space(degree, refinements, dirichlet_sides):
    kv = refine_uniform(KnotVector.bernstein(degree), refinements)
    return TensorSplineSpace(kv, kv, dirichlet_sides)


def _rect_patch(x0, x1, y0, y1, alpha, degree, refinements, dirichlet_sides):
    geo = GeometryMap.bilinear((x0, y0), (x1, y0), (x0, y1), (x1, y1))
    return Patch(geo, alpha, _space(degree, refinements, dirichlet_sides))


def grid_domain(n, degree=2, refinements=1, alphas=None):
    """Conforming n x n grid of unit squares on [0, n]^2."""
    if n < 1:
        raise ConfigError("grid size must be >= 1")
    patches = []
    for j in range(n):
        for i in range(n):
            sides = set()
            if i == 0:
                sides.add("west")
            if i == n - 1:
                sides.add("east")
            if j == 0:
                sides.add("south")
            if j == n - 1:
                sides.add("north")
            alpha = alphas[j * n + i] if alphas is not None else 1.0
            patches.append(_rect_patch(i, i + 1, j, j + 1, alpha, degree, refinements, sides))
    interfaces = []
    for j in range(n):
        for i in range(n):
            k = j * n + i
            if i + 1 < n:
                interfaces.append(Interface(k, "east", (0.0, 1.0), k + 1, "west", (0.0, 1.0)))
            if j + 1 < n:
                interfaces.append(Interface(k, "north", (0.0, 1.0), k + n, "south", (0.0, 1.0)))
    return MultiPatchDomain(patches, interfaces, name="grid%dx%d" % (n, n)).validate()


def t_domain(degree=2, refinements=1, alphas=None, jump_exponent=None):
    """Five patches on [0, 3] x [0, 2] with a T-junction at (0.8, 1).

    Patch 0 spans [0, 2] x [1, 2] and sits on patches 1 ([0, 0.8]) and
    2 ([0.8, 2]); patches 3 and 4 fill the right column and meet 0 and 2
    in a regular four-patch corner at (2, 1).  With `jump_exponent` j, the
    patches in :data:`TDOMAIN_JUMP_PATCHES` get the coefficient ``10**j``.
    """
    if alphas is None:
        alphas = [1.0] * 5
    alphas = list(alphas)
    if jump_exponent is not None:
        try:
            jump = 10.0**jump_exponent
        except OverflowError:
            raise ConfigError("jump exponent %r overflows 10**j" % jump_exponent) from None
        for k in TDOMAIN_JUMP_PATCHES:
            alphas[k] = jump
    boxes = [
        (0.0, 2.0, 1.0, 2.0, {"west", "north"}),
        (0.0, 0.8, 0.0, 1.0, {"west", "south"}),
        (0.8, 2.0, 0.0, 1.0, {"south"}),
        (2.0, 3.0, 1.0, 2.0, {"north", "east"}),
        (2.0, 3.0, 0.0, 1.0, {"south", "east"}),
    ]
    patches = [
        _rect_patch(x0, x1, y0, y1, alphas[k], degree, refinements, sides)
        for k, (x0, x1, y0, y1, sides) in enumerate(boxes)
    ]
    interfaces = [
        Interface(0, "south", (0.0, 0.4), 1, "north", (0.0, 1.0)),
        Interface(0, "south", (0.4, 1.0), 2, "north", (0.0, 1.0)),
        Interface(1, "east", (0.0, 1.0), 2, "west", (0.0, 1.0)),
        Interface(0, "east", (0.0, 1.0), 3, "west", (0.0, 1.0)),
        Interface(2, "east", (0.0, 1.0), 4, "west", (0.0, 1.0)),
        Interface(3, "south", (0.0, 1.0), 4, "north", (0.0, 1.0)),
    ]
    return MultiPatchDomain(patches, interfaces, name="tdomain").validate()


def slider_domain(m, s, degree=2, refinements=1, alphas=None):
    """Two rows of patches over [0, m] x [0, 2]; the top cuts slide by `s`.

    The bottom row is cut at integers, the top row at ``i + s``; every cut
    of one row lies strictly inside a patch of the other, producing
    ``2 (m - 1)`` T-junctions on the line y = 1.
    """
    if m < 2:
        raise ConfigError("slider needs at least two patches per row")
    if not 0.0 < s < 1.0:
        raise ConfigError("slide offset must be in (0, 1)")
    bottom_cuts = [float(i) for i in range(m + 1)]
    top_cuts = [0.0] + [i + s for i in range(m - 1)] + [float(m)]
    patches = []
    for i in range(m):
        sides = {"south"} | ({"west"} if i == 0 else set()) | ({"east"} if i == m - 1 else set())
        alpha = alphas[i] if alphas is not None else 1.0
        patches.append(_rect_patch(bottom_cuts[i], bottom_cuts[i + 1], 0.0, 1.0,
                                   alpha, degree, refinements, sides))
    for j in range(m):
        sides = {"north"} | ({"west"} if j == 0 else set()) | ({"east"} if j == m - 1 else set())
        alpha = alphas[m + j] if alphas is not None else 1.0
        patches.append(_rect_patch(top_cuts[j], top_cuts[j + 1], 1.0, 2.0,
                                   alpha, degree, refinements, sides))
    interfaces = []
    for i in range(m - 1):
        interfaces.append(Interface(i, "east", (0.0, 1.0), i + 1, "west", (0.0, 1.0)))
        interfaces.append(Interface(m + i, "east", (0.0, 1.0), m + i + 1, "west", (0.0, 1.0)))
    for i in range(m):
        lo_b, hi_b = bottom_cuts[i], bottom_cuts[i + 1]
        for j in range(m):
            lo, hi = max(lo_b, top_cuts[j]), min(hi_b, top_cuts[j + 1])
            if hi - lo <= 1e-12:
                continue
            wb = hi_b - lo_b
            wt = top_cuts[j + 1] - top_cuts[j]
            interfaces.append(
                Interface(
                    i, "north", ((lo - lo_b) / wb, (hi - lo_b) / wb),
                    m + j, "south", ((lo - top_cuts[j]) / wt, (hi - top_cuts[j]) / wt),
                )
            )
    return MultiPatchDomain(patches, interfaces, name="slider%d_%g" % (m, s)).validate()


def _builtin_args(name, args, defaults):
    """Cast the positional arguments of built-in family `name` to the types of its defaults."""
    if len(args) > len(defaults):
        raise ConfigError("builtin %s: surplus argument(s) %s" % (name, list(args[len(defaults):])))
    out = list(defaults)
    for i, arg in enumerate(args):
        try:
            out[i] = type(defaults[i])(arg)
        except (TypeError, ValueError):
            raise ConfigError("builtin %s: argument %r is not %s" % (
                name, arg, "an integer" if isinstance(defaults[i], int) else "a number")) from None
    return out


def builtin_domain(name, args=(), degree=2, refinements=1, alphas=None, jump_exponent=None):
    """Dispatch a built-in generator by name with its positional arguments.

    Only the T-domain designates coefficient-jump patches, so a
    `jump_exponent` for grid or slider is a configuration error.
    """
    if jump_exponent is not None and name in ("grid", "slider"):
        raise ConfigError("builtin %s takes no jump exponent (only tdomain does)" % name)
    if name == "grid":
        (n,) = _builtin_args(name, args, (2,))
        return grid_domain(n, degree, refinements, alphas)
    if name == "tdomain":
        _builtin_args(name, args, ())
        return t_domain(degree, refinements, alphas, jump_exponent)
    if name == "slider":
        m, s = _builtin_args(name, args, (3, 0.3))
        return slider_domain(m, s, degree, refinements, alphas)
    raise ConfigError("unknown builtin domain %r (expected grid, tdomain or slider)" % name)


# -- JSON configs ---------------------------------------------------------


def domain_to_config(domain):
    """JSON-ready dict describing the domain; floats round-trip in binary64."""
    patches = []
    for p in domain.patches:
        patches.append(
            {
                "geometry": p.geometry.as_dict(),
                "alpha": p.alpha,
                "space": {
                    "degree": p.space.degree,
                    "knots_u": p.space.kv_u.knots.tolist(),
                    "knots_v": p.space.kv_v.knots.tolist(),
                },
                "dirichlet_sides": sorted(p.space.dirichlet_sides),
            }
        )
    interfaces = [
        {
            "k": g.k, "side_k": g.side_k, "range_k": list(g.range_k),
            "l": g.l, "side_l": g.side_l, "range_l": list(g.range_l),
            "reversed": g.reversed_,
        }
        for g in domain.interfaces
    ]
    return {"name": domain.name, "patches": patches, "interfaces": interfaces}


def domain_from_config(config):
    """Build and validate a domain from a config dict (see README for the schema).

    A missing key or a wrongly typed entry raises :class:`ConfigError`
    naming the entry and the key or the offending value.
    """
    where = "config"
    try:
        patches = []
        for i, entry in enumerate(config["patches"]):
            where = "patches[%d]" % i
            gdata = entry["geometry"]
            geo = GeometryMap(
                KnotVector(gdata["degree"], gdata["knots_u"]),
                KnotVector(gdata["degree"], gdata["knots_v"]),
                np.asarray(gdata["control_points"], dtype=float),
            )
            sdata = entry["space"]
            degree = sdata["degree"]
            if "knots_u" in sdata:
                kv_u = KnotVector(degree, sdata["knots_u"])
                kv_v = KnotVector(degree, sdata["knots_v"])
            else:
                r = sdata.get("refinements", 0)
                if isinstance(r, bool) or not isinstance(r, int) or r < 0:
                    raise ConfigError("refinements must be a non-negative integer, got %r" % (r,))
                kv_u = kv_v = refine_uniform(KnotVector.bernstein(degree), r)
            space = TensorSplineSpace(kv_u, kv_v, entry.get("dirichlet_sides", ()))
            if isinstance(entry["alpha"], bool) or not isinstance(entry["alpha"], (int, float)):
                raise ConfigError("alpha must be a number, got %r" % (entry["alpha"],))
            patches.append(Patch(geo, float(entry["alpha"]), space))
        interfaces = []
        for i, g in enumerate(config["interfaces"]):
            where = "interfaces[%d]" % i
            reversed_ = g.get("reversed", False)
            if not isinstance(reversed_, bool):
                raise ConfigError("reversed must be true or false, got %r" % (reversed_,))
            interfaces.append(Interface(
                g["k"], g["side_k"], tuple(g["range_k"]),
                g["l"], g["side_l"], tuple(g["range_l"]), reversed_,
            ))
        where = "config"
        return MultiPatchDomain(patches, interfaces, name=config.get("name", "domain")).validate()
    except ConfigError as exc:
        raise ConfigError("%s: %s" % (where, exc)) from exc
    except KeyError as exc:
        raise ConfigError("%s: missing key %s" % (where, exc)) from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError("%s: malformed entry: %s" % (where, exc)) from exc


def load_domain(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc
    except ValueError as exc:  # json.JSONDecodeError, or bytes that are not text
        raise ConfigError("%s is not valid JSON: %s" % (path, exc)) from exc
    return domain_from_config(config)


def save_domain(domain, path):
    with open(path, "w") as fh:
        json.dump(domain_to_config(domain), fh, indent=2)
