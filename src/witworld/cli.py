"""Command-line interface.

Verbs: ``prbox``, ``rsp``, ``check-state``, ``check-effect``, ``check-map``,
``assemblage``, ``lhs``.  Exit codes: 0 accepted/success, 1 rejected (a
certificate is printed), 2 inconclusive, unsupported or not applicable
(``lhs`` on a scenario it does not take), 64 usage error,
65 malformed input file, 70 internal error (the traceback goes to
standard error), 74 standard output closed before the result was
written, or an ``--emit`` file that could not be written.  Every verb has
a ``--json`` mode; diagnostics go to standard error.  The environment
variable ``WITWORLD_SEED`` supplies the default search seed; a value that
is not an integer, like an out-of-range search flag, is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
import traceback

import numpy as np

from .compose import SearchConfig, composite_effect_check, composite_state_check
from .protocols import (
    best_deterministic_chsh,
    bloch_state,
    builtin_state,
    chsh_value,
    pr_box_kit,
    pr_box_probability,
    rsp_run,
    BUILTIN_STATE_NAMES,
)
from .serialize import (
    MalformedInputError,
    assemblage_to_json,
    dump_json,
    gptvector_from_json,
    linear_map_from_json,
    load_json_file,
    assemblage_from_json,
    steering_inequality_to_json,
    gptvector_to_json,
)
from .steering import (
    BIPARTITE,
    MULTIPARTITE,
    PAPER_ASSEMBLAGE_NAMES,
    LhsConfig,
    StrategyCapError,
    lhs_check,
    ns_check,
    paper_assemblage,
    wire_instrumental,
)
from .systems import Quantum, hermitian_to_vector
from .transforms import builtin_map, positivity_check, quantum_cp_check, trace_condition_check
from .verdict import ACCEPTED, REJECTED, UNSUPPORTED

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65
EXIT_SOFTWARE = 70
EXIT_IOERR = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _verdict_exit(status: str) -> int:
    if status == ACCEPTED:
        return EXIT_OK
    if status == REJECTED:
        return EXIT_REJECTED
    return EXIT_INCONCLUSIVE


def _cfg_from_args(args) -> SearchConfig:
    given = {
        k: getattr(args, k) for k in ("grid", "restarts", "seed", "tol")
        if getattr(args, k, None) is not None
    }
    try:
        return SearchConfig(**given)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _add_search_flags(p):
    p.add_argument("--grid", type=int, help="polar grid divisions for sphere scans")
    p.add_argument("--restarts", type=int, help="random restarts for heuristic searches")
    p.add_argument("--seed", type=int, help="search seed (default: WITWORLD_SEED or 0)")
    p.add_argument("--tol", type=float, help="membership tolerance")


def _load_state(spec: str):
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        try:
            return builtin_state(name)
        except KeyError:
            raise _UsageError(
                f"unknown built-in state {name!r}; choose from {', '.join(BUILTIN_STATE_NAMES)}"
            )
    return gptvector_from_json(load_json_file(spec))


def _load_map(spec: str):
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        try:
            return builtin_map(name)
        except KeyError:
            raise _UsageError(f"unknown built-in map {name!r}")
    return linear_map_from_json(load_json_file(spec))


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def _cmd_prbox(args) -> int:
    kit = pr_box_kit()
    probs = {
        (a, b, x, y): pr_box_probability(kit, a, b, x, y)
        for a, b, x, y in itertools.product(range(2), repeat=4)
    }
    chsh = chsh_value(lambda a, b, x, y: probs[(a, b, x, y)])
    if args.json:
        payload = {
            "probabilities": {
                f"a={a},b={b}|x={x},y={y}": p for (a, b, x, y), p in sorted(probs.items())
            },
            "chsh": chsh,
            "classical_bound": best_deterministic_chsh(),
        }
        print(dump_json(payload))
    else:
        print("x y |  p(00)  p(01)  p(10)  p(11)")
        for x, y in itertools.product(range(2), repeat=2):
            row = "  ".join(f"{probs[(a, b, x, y)]:.4f}" for a, b in itertools.product(range(2), repeat=2))
            print(f"{x} {y} |  {row}")
        print(f"CHSH = {chsh:.4f}")
    return EXIT_OK


def _cmd_rsp(args) -> int:
    def run_payload(run, dist):
        return {
            "psi": {"re": np.real(run.psi).tolist(), "im": np.imag(run.psi).tolist()},
            "branches": [
                {
                    "outcome": b.outcome,
                    "weight": b.weight,
                    "pre_correction": gptvector_to_json(b.pre_correction, matrix_form=True),
                    "post_correction": gptvector_to_json(b.post_correction, matrix_form=True),
                }
                for b in run.branches
            ],
            "trace_distance": dist,
            "bits_sent": run.bits_sent,
        }

    if args.grid_states is not None and args.grid_states < 1:
        raise _UsageError(f"--grid must be >= 1, got {args.grid_states}")
    if not (np.isfinite(args.theta) and np.isfinite(args.phi)):
        raise _UsageError(f"--theta and --phi must be finite, got {args.theta}, {args.phi}")
    if args.grid_states is not None:
        n = args.grid_states
        golden = np.pi * (3.0 - np.sqrt(5.0))
        runs = [
            rsp_run(bloch_state(np.arccos(1 - 2 * (i + 0.5) / n), (i * golden) % (2 * np.pi)))
            for i in range(n)
        ]
        dists = [r.trace_distance_to_target() for r in runs]
        worst = max(dists)
        if args.json:
            print(dump_json({"runs": [run_payload(r, d) for r, d in zip(runs, dists)],
                             "max_trace_distance": worst}))
        else:
            print(f"ran {n} grid states; max trace distance = {worst:.3e}; bits sent = 1 each")
        return EXIT_OK if worst <= 1e-8 else EXIT_REJECTED
    run = rsp_run(bloch_state(args.theta, args.phi))
    dist = run.trace_distance_to_target()
    if args.json:
        print(dump_json(run_payload(run, dist)))
    else:
        print(f"target: theta={args.theta}, phi={args.phi}")
        for b in run.branches:
            print(f"  outcome {b.outcome}: weight {b.weight:.6f}")
        print(f"trace distance to target = {dist:.3e}")
        print(f"bits sent = {run.bits_sent}")
    return EXIT_OK if dist <= 1e-8 else EXIT_REJECTED


def _report_verdict(args, verdict, extra=None) -> int:
    if args.json:
        payload = {
            "status": verdict.status,
            "margin": verdict.margin,
            "detail": verdict.detail,
        }
        if extra:
            payload.update(extra)
        print(dump_json(payload))
    else:
        print(verdict.describe())
    return _verdict_exit(verdict.status)


def _cmd_check_state(args) -> int:
    v = _load_state(args.file)
    verdict = composite_state_check(v, _cfg_from_args(args))
    extra = None
    if verdict.rejected:
        extra = {"violating_effect": gptvector_to_json(verdict.witness)}
        if not args.json:
            print(f"violating effect: {verdict.witness.coeffs}", file=sys.stderr)
    return _report_verdict(args, verdict, extra)


def _cmd_check_effect(args) -> int:
    e = _load_state(args.file)
    verdict = composite_effect_check(e, cfg=_cfg_from_args(args))
    extra = None
    if verdict.rejected:
        extra = {"violating_state": gptvector_to_json(verdict.witness)}
    return _report_verdict(args, verdict, extra)


def _cmd_check_map(args) -> int:
    t = _load_map(args.file)
    cfg = _cfg_from_args(args)
    if args.test == "positivity":
        return _report_verdict(args, positivity_check(t, cfg))
    if args.test == "cp":
        if not all(len(s.atoms) == 1 and isinstance(s.atoms[0], Quantum)
                   for s in (t.domain, t.codomain)):
            raise _UsageError(
                f"--test cp needs a single quantum domain and codomain, got {t.domain} -> {t.codomain}"
            )
        verdict, min_eig = quantum_cp_check(t, cfg.tol)
        if args.json:
            print(dump_json({"status": verdict.status, "min_choi_eigenvalue": min_eig}))
        else:
            print(f"min Choi eigenvalue = {min_eig:.4f}")
            print(verdict.describe())
        return _verdict_exit(verdict.status)
    mode = "preserving" if args.test == "trace-preserving" else "non-increasing"
    return _report_verdict(args, trace_condition_check(t, mode, cfg))


def _default_gleason_measurements(witness):
    povms = []
    for atom in witness.atoms[:-1]:
        if not isinstance(atom, Quantum) or atom.d != 2:
            raise _UsageError("default gleason measurements need qubit parties")
        z = [hermitian_to_vector(np.diag([1.0, 0.0]).astype(complex)),
             hermitian_to_vector(np.diag([0.0, 1.0]).astype(complex))]
        x = [hermitian_to_vector(np.array([[0.5, s * 0.5], [s * 0.5, 0.5]], dtype=complex))
             for s in (1.0, -1.0)]
        povms.append([z, x])
    return povms


def _cmd_assemblage(args) -> int:
    cfg = _cfg_from_args(args)
    wired_from = None  # the bob-with-input assemblage behind instrumental-star
    if args.name == "instrumental-star":
        wired_from = paper_assemblage("bwi-star-star", cfg=cfg)
        asm = wire_instrumental(wired_from, cfg.tol)
    elif args.name == "gleason":
        if not args.witness:
            raise _UsageError("assemblage gleason needs --witness FILE|builtin:NAME")
        witness = _load_state(args.witness)
        asm = paper_assemblage(
            "gleason", witness=witness,
            measurements=_default_gleason_measurements(witness), cfg=cfg,
        )
    else:
        asm = paper_assemblage(args.name, cfg=cfg)
    payload = {"name": args.name, "scenario": asm.scenario}
    code = EXIT_OK
    messages = []
    if args.verify_ns:
        if wired_from is not None:
            verdict = ns_check(wired_from, cfg.tol)
            messages.append(f"ns (of the wired assemblage): {verdict.describe()}")
        else:
            verdict = ns_check(asm, cfg.tol)
            messages.append(f"ns: {verdict.describe()}")
        payload["ns"] = {"status": verdict.status, "margin": verdict.margin, "detail": verdict.detail}
        code = max(code, _verdict_exit(verdict.status))
    if args.verify_lhs:
        if asm.scenario in (BIPARTITE, MULTIPARTITE):
            verdict, model = lhs_check(asm, LhsConfig(tol=cfg.tol))
            if verdict.status == ACCEPTED:
                messages.append(f"lhs: feasible ({verdict.detail})")
                payload["lhs"] = {"status": "feasible", "detail": verdict.detail}
            elif verdict.status == REJECTED:
                cert = steering_inequality_to_json(verdict.witness, asm.scenario)
                messages.append(f"lhs: infeasible, certificate value {verdict.witness.value:.6g} > 0")
                payload["lhs"] = {"status": "infeasible", "certificate": cert}
            else:
                messages.append(f"lhs: {verdict.status}")
                payload["lhs"] = {"status": verdict.status}
                code = max(code, EXIT_INCONCLUSIVE)
        else:
            messages.append("lhs: not applicable to this scenario")
            payload["lhs"] = {"status": "not-applicable"}
    if args.emit:
        try:
            dump_json(assemblage_to_json(asm), args.emit)
        except OSError as exc:
            print(f"error: cannot write {args.emit}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_IOERR
        messages.append(f"wrote {args.emit}")
    if args.json:
        print(dump_json(payload))
    else:
        print(f"{args.name}: scenario {asm.scenario}, outcomes {asm.outcomes}, settings {asm.settings}")
        for msg in messages:
            print(msg)
    return code


def _lhs_inconclusive(args, status: str, detail: str) -> int:
    if args.json:
        print(dump_json({"status": status, "detail": detail}))
    else:
        print(f"{status}: {detail}")
    return EXIT_INCONCLUSIVE


def _cmd_lhs(args) -> int:
    asm = assemblage_from_json(load_json_file(args.file))
    if asm.scenario not in (BIPARTITE, MULTIPARTITE):
        return _lhs_inconclusive(
            args, "not-applicable",
            f"the lhs test takes bipartite or multipartite assemblages, not {asm.scenario}",
        )
    try:
        verdict, model = lhs_check(asm)
    except StrategyCapError as exc:
        return _lhs_inconclusive(args, UNSUPPORTED, str(exc))
    if verdict.status == REJECTED:
        cert = steering_inequality_to_json(verdict.witness, asm.scenario)
        if args.json:
            print(dump_json({"status": "infeasible", "certificate": cert}))
        else:
            print("infeasible; violated inequality:")
            print(dump_json(cert))
        return EXIT_REJECTED
    if verdict.status != ACCEPTED:
        return _lhs_inconclusive(args, verdict.status, verdict.detail)
    payload = {
        "status": "feasible",
        "detail": verdict.detail,
        "strategies": len(model.weights),
    }
    if args.json:
        print(dump_json(payload))
    else:
        print(f"feasible with {len(model.weights)} strategies; {verdict.detail}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="witworld", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("prbox", help="print the PR box table and its CHSH value")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rsp", help="run remote state preparation")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--grid", dest="grid_states", type=int, metavar="N",
                   help="run a deterministic N-state grid instead of one state")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check-state", help="composite cone membership of a state")
    p.add_argument("file", help="JSON file or builtin:NAME")
    _add_search_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check-effect", help="validity of an effect")
    p.add_argument("file", help="JSON file or builtin:NAME")
    _add_search_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check-map", help="positivity / CP / trace tests of a map")
    p.add_argument("file", help="JSON file or builtin:NAME")
    p.add_argument("--test", required=True,
                   choices=["positivity", "cp", "trace-preserving", "trace-nonincreasing"])
    _add_search_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("assemblage", help="build and verify a named assemblage")
    p.add_argument("name", choices=list(PAPER_ASSEMBLAGE_NAMES))
    p.add_argument("--verify-ns", action="store_true")
    p.add_argument("--verify-lhs", action="store_true")
    p.add_argument("--emit", metavar="FILE", help="write the assemblage as JSON")
    p.add_argument("--witness", help="for gleason: JSON file or builtin:NAME")
    _add_search_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("lhs", help="shared-randomness feasibility of an assemblage file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    return parser


_parser = None


def main(argv=None) -> int:
    """Run one command; safe to call many times in one process.

    The parser is built on the first call and reused: ``parse_args`` keeps
    no state between calls.  The verb's ``_cmd_*`` function is looked up
    when the call runs, not bound when the parser is built.  It runs with
    floating-point overflow and invalid operations raising, so a number
    that went to inf or nan exits as an internal error, never as a verdict.
    Standard output is flushed before the call returns; if its reader has
    gone, the call returns 74.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = globals()["_cmd_" + args.verb.replace("-", "_")]
    try:
        with np.errstate(over="raise", invalid="raise"):
            code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point standard output at the null device, so that the interpreter's
        # last flush at exit stays quiet; a StringIO has no descriptor to point
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        return EXIT_IOERR
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MalformedInputError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
