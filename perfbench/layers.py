"""Per-layer metrics of a traced run, and the extended-basis cost-model fit.

Span statistics cover the first traced pass (the timed work), except for the
names tied to set-up, which add the traced set-up to that pass.
Names that no span carries on a workload read 0.
"""

from charfield2 import extbasis

from tracer import percentile_us, tail_us

KINDS = extbasis.KINDS
DEGREES = (26, 64)

# (span name or prefix, statistics).  A name ending in ".*" sums every span
# name under that prefix.
SPAN_METRICS = (
    # arith: the normal-coordinate product and the table-vector product
    ("normal.normal_mul", ("calls", "self_s", "p50", "tail")),
    ("linalg.row_apply", ("calls", "self_s")),
    ("linalg.parity", ("calls", "self_s")),
    ("extbasis.mul.*", ("calls", "self_s")),
    ("normal.alpha_mul", ("calls", "self_s")),
    ("extbasis.square.*", ("calls", "self_s")),
    # oracle: big-field arithmetic, root finding and tables
    ("field.poly_mul_mod", ("calls", "self_s", "p50")),
    ("field.reduce_product", ("calls", "self_s")),
    ("bitpoly.poly_mul", ("calls", "self_s")),
    ("field.inverse", ("calls", "self_s")),
    ("field.solve_artin_schreier", ("calls", "self_s")),
    ("tables.find_roots", ("calls", "self_s")),
    ("tables.build_embedding", ("calls", "self_s", "p50")),
    ("tables.build_tables", ("calls", "self_s")),
    ("tables.expected_counts", ("calls", "self_s")),
    ("tables.verify_table_entries", ("calls", "self_s")),
    ("bitpoly.min_irreducible", ("calls", "self_s")),
    ("linalg.mat_invert", ("calls", "self_s")),
    # search: candidate scans and basis construction
    ("normal.is_normal_element", ("calls", "self_s", "p50")),
    ("linalg.mat_rank", ("calls", "self_s")),
    ("field.power", ("calls", "self_s")),
    ("field.multiplicative_order", ("calls", "self_s")),
    ("normal.search_normal_elements", ("calls", "self_s")),
    ("normal.build_normal_basis", ("calls", "self_s", "p50")),
    ("normal.cross_product_sum", ("calls", "self_s", "p50")),
    # set-up (statistics include the traced set-up)
    ("field.order_factors", ("self_s",)),
    ("normal.mul_rows", ("self_s",)),
    ("witt.asw4_reduction_rules", ("calls", "self_s")),
    *((f"extbasis.build_kind.{k}", ("self_s",)) for k in KINDS),
    ("extbasis.element_is_cube", ("calls", "self_s")),
    ("fixtures.Fixture.basis", ("calls", "self_s")),
    # cli
    ("tower.*", ("calls", "self_s")),
    *((f"cli.{c}", ("self_s",)) for c in
      ("verify", "tables", "densities", "cross-sums", "search", "bench")),
    ("cli._basis_for_kind", ("calls", "self_s")),
)

SETUP_NAMES = ("field.order_factors", "normal.mul_rows", "witt.asw4_reduction_rules",
               "extbasis.build_kind.", "extbasis.element_is_cube",
               "fixtures.Fixture.basis")

UNITS = {"calls": "count", "self_s": "s", "p50": "us", "tail": "us"}

# Metrics that are not span statistics, with their units.
OTHER_METRICS = (
    *((f"extbasis.{op}.{k}.n{n}.us.p50", "us") for op in ("mul", "square")
      for n in DEGREES for k in KINDS),
    ("tables.find_roots.field_products", "count"),
    ("normal.is_normal_element.true_frac", "frac"),
    ("import.charfield2_s", "s"),
    ("import.sympy_s", "s"),
    ("trace_overhead_frac", "frac"),
    *((f"extbasis.cost_model.n{n}.{p}", u) for n in DEGREES
      for p, u in (("t_mul_us", "us"), ("t_add_us", "us"), ("t_tvp_us", "us"),
                   ("residual_frac", "frac"))),
    ("mul_per_s", "1/s"), ("square_per_s", "1/s"), ("cases_per_s", "1/s"),
    ("candidates_per_s", "1/s"), ("bases_per_s", "1/s"), ("commands_per_s", "1/s"),
    ("fail_frac", "frac"),
)


def _metric_name(name, stat):
    base = name[:-2] if name.endswith(".*") else name
    return f"{base}.us.{stat}" if stat in ("p50", "tail") else f"{base}.{stat}"


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name, stats in SPAN_METRICS:
        for stat in stats:
            out[_metric_name(name, stat)] = UNITS[stat]
    out.update(OTHER_METRICS)
    return out


# Span names whose duration percentiles are reported.
DURATION_NAMES = frozenset(name for name, stats in SPAN_METRICS
                           if "p50" in stats or "tail" in stats)


def span_metrics(pass_stats, setup_stats):
    """Values of every SPAN_METRICS entry from the span statistics of the
    traced pass and of the traced set-up."""
    out = {}
    for name, stats in SPAN_METRICS:
        sources = [pass_stats]
        if name.startswith(SETUP_NAMES):
            sources.append(setup_stats)
        if name.endswith(".*"):
            prefix = name[:-1]
            rows = [v for src in sources for k, v in src.items() if k.startswith(prefix)]
        else:
            rows = [src[name] for src in sources if name in src]
        for stat in stats:
            if stat == "calls":
                value = sum(r["calls"] for r in rows)
            elif stat == "self_s":
                value = sum(r["self_s"] for r in rows)
            elif not rows:
                value = 0.0
            elif stat == "p50":
                value = percentile_us(rows[0]["durations_ns"], 0.5)
            else:
                value = tail_us(rows[0]["durations_ns"])
            out[_metric_name(name, stat)] = value
    return out


def cost_model(labels, medians_s):
    """Least-squares fit t = mults*t_mul + adds*t_add + tvp*t_tvp per degree
    over the 8 counted programs (4 kinds x mul, square), with the rows used."""
    import numpy as np
    fits, rows = {}, []
    by_label = dict(zip(labels, medians_s))
    for n in DEGREES:
        a, t, names = [], [], []
        for op, table in (("mul", extbasis.EXPECTED_MUL_COUNTS),
                          ("square", extbasis.EXPECTED_SQUARE_COUNTS)):
            for k in KINDS:
                a.append(table[k])
                t.append(by_label[f"{op}.{k}.n{n}"] * 1e6)
                names.append(f"{op}.{k}.n{n}")
        a, t = np.array(a, dtype=float), np.array(t)
        coef = np.linalg.lstsq(a, t, rcond=None)[0]
        pred = a @ coef
        resid = float(np.linalg.norm(pred - t) / np.linalg.norm(t))
        fits[n] = {"t_mul_us": float(coef[0]), "t_add_us": float(coef[1]),
                   "t_tvp_us": float(coef[2]), "residual_frac": resid}
        rows += [{"program": nm, "counts": list(map(int, c)), "measured_us": float(m),
                  "predicted_us": float(p)} for nm, c, m, p in zip(names, a, t, pred)]
    return fits, rows
