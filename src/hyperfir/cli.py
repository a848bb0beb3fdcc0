"""Command-line harness: training runs, step-size bounds, algebra one-shots.

Exit codes: 0 on completion, 2 when a training run diverges, 1 on usage or
input errors.  All randomness derives from --seed, so identical invocations
produce byte-identical CSV traces.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .activations import ACTIVATIONS
from .algebra import Multivector, Signature, format_multivector, parse_multivector
from .experiments import SIGNAL_KINDS, SignalSpec, emit_csv, run_training
from .filtering import FilterConfig, _window, load_state, mu_bound, net_input
from .geometry import dual, left_contraction, outer_product, right_contraction

#: `algebra --op` name -> (operand count, operation); results print as literals or with repr.
_OPS = {
    "product": (2, lambda a, b: a * b),
    "outer": (2, outer_product),
    "left": (2, left_contraction),
    "right": (2, right_contraction),
    "scalar": (2, Multivector.scalar_product),
    "involution": (1, Multivector.involution),
    "reverse": (1, Multivector.reverse),
    "dual": (1, dual),
    "modulus": (1, Multivector.modulus),
}


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; code 2 is reserved for diverged runs
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyperfir", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    train = sub.add_parser("train", help="run a training experiment and write a CSV trace")
    train.add_argument("--p", type=int, default=0, help="basis vectors squaring to +1")
    train.add_argument("--q", type=int, default=2, help="basis vectors squaring to -1")
    train.add_argument("--taps", type=int, default=4, help="filter length L")
    train.add_argument("--activation", choices=sorted(ACTIVATIONS), default="tanh")
    train.add_argument("--algo", choices=("shafa", "aashafa"), default="shafa")
    train.add_argument("--mu", type=float, default=None, help="fixed step size (overrides auto mode)")
    train.add_argument("--mu-auto-frac", type=float, default=0.1,
                       help="step size as a fraction of the per-step bound")
    train.add_argument("--rho", type=float, default=0.01, help="amplitude learning rate (aashafa)")
    train.add_argument("--steps", type=int, default=5000, help="number of training steps")
    train.add_argument("--signal", choices=SIGNAL_KINDS, default="teacher")
    train.add_argument("--scale", type=float, default=1.0, help="signal amplitude multiplier")
    train.add_argument("--noise", type=float, default=0.0, help="additive noise std")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True, help="CSV output path")

    bound = sub.add_parser("bound", help="print the step-size bound for a state and window")
    bound.add_argument("--state", required=True, help="state snapshot file")
    bound.add_argument("window", nargs="+", help="L window samples as 'p,q:[...]', most recent first")

    algebra = sub.add_parser("algebra", help="evaluate one algebra operation on multivector literals")
    algebra.add_argument("--op", required=True, choices=_OPS)
    algebra.add_argument("operands", nargs="+", help="multivector literals 'p,q:[...]'")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: parse_args stores nothing on it.
    return build_parser()


def _cmd_train(args) -> int:
    config = FilterConfig(
        sig=Signature(args.p, args.q),
        taps=args.taps,
        activation=args.activation,
        mu=args.mu,
        mu_auto_frac=args.mu_auto_frac,
        rho=args.rho,
        adaptive_amplitude=args.algo == "aashafa",
        seed=args.seed + 1,
    )
    spec = SignalSpec(
        kind=args.signal,
        length=args.steps + args.taps,
        scale=args.scale,
        noise_std=args.noise,
        seed=args.seed,
        teacher_activation=args.activation,
    )
    report = run_training(config, spec)
    emit_csv(report, args.out)
    summary = report.summary
    print(f"rows: {len(report.rows)}")
    print(f"final_mse: {summary.final_mse:.17g}")
    print(f"steps_to_threshold: {summary.steps_to_threshold}")
    print(f"max_lambda_ratio: {summary.max_lambda_ratio:.17g}")
    print(f"lambda_ok: {str(summary.lambda_ok).lower()}")
    print(f"diverged: {str(summary.diverged).lower()}")
    return 2 if summary.diverged else 0


def _cmd_bound(args) -> int:
    state, activation_name = load_state(args.state)
    phi = ACTIVATIONS[activation_name]
    samples = tuple(parse_multivector(text) for text in args.window)
    if len(samples) != state.taps:
        raise ValueError(f"state has {state.taps} taps but {len(samples)} window samples given")
    # Stacked once, so that the printed parts of x~.x are the very ones the
    # bound was computed from: |x~.x| added left to right, as in training.
    window = _window(samples)
    s = net_input(state.weights, window)
    value = mu_bound(window, s, phi, state.amplitudes)
    xx_modulus, xx_scalar, _ = window.xx_parts
    print(f"mu_bound: {value:.17g}")
    print(f"xx_scalar: {xx_scalar:.17g}")
    print(f"xx_modulus: {xx_modulus:.17g}")
    return 0


def _cmd_algebra(args) -> int:
    operands = [parse_multivector(text) for text in args.operands]
    arity, op = _OPS[args.op]
    if len(operands) != arity:
        raise ValueError(f"--op {args.op} needs exactly {'two operands' if arity == 2 else 'one operand'}")
    result = op(*operands)
    print(format_multivector(result) if isinstance(result, Multivector) else repr(result))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "bound":
            return _cmd_bound(args)
        return _cmd_algebra(args)
    except (ValueError, OSError) as exc:
        print(f"hyperfir: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
