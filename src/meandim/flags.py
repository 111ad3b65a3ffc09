"""A command's argv, read against its table of flags as argparse reads it.

The table maps each flag to argparse's keywords: ``type`` (a function of
the text that raises CliError or ValueError), ``default``, ``choices``,
``required``, ``help``, and ``action="store_true"`` for a switch.  Each
value is stored under the flag's name with '-' read as '_'
(``--M-schedule``: ``args.M_schedule``).  No argparse is imported: its
gettext and locale imports and per-flag help formatters cost each
fresh-process run more than the small commands' own work.  The reader
is not in ``cli`` because, where no bytecode cache is written, every
module is compiled at import, and compiling ``cli``, the last and
largest, sets a run's peak RSS.
"""

from __future__ import annotations

from types import SimpleNamespace

from .errors import CliError


def is_flag(token: str) -> bool:
    """Whether ``token`` is a flag, not a value: '-' and then neither a
    digit nor '.', so ``--action -3,2`` reads its value; '-' is a value."""
    return len(token) > 1 and token[0] == "-" and token[1] not in "0123456789."


def resolve(flags, token: str) -> tuple[str | None, str | None]:
    """The flag that ``token`` names, in full or by a unique prefix (None
    if it names none), and the value joined to it by '=' (None if none)."""
    name, eq, joined = token.partition("=")
    name = "--help" if name == "-h" else name
    matches = [name] if name in flags else [flag for flag in flags if flag.startswith(name)]
    if len(matches) > 1:
        raise CliError(f"ambiguous option: {token} could match {', '.join(matches)}")
    return (matches[0] if matches else None), (joined if eq else None)


def _read_value(flag: str, kwargs: dict, text: str):
    kind = kwargs.get("type")
    try:
        value = text if kind is None else kind(text)
    except CliError as exc:
        raise CliError(f"argument {flag}: {exc}") from None
    except ValueError:
        raise CliError(f"argument {flag}: invalid {kind.__name__} value: {text!r}") from None
    choices = kwargs.get("choices", (value,))
    if value not in choices:
        raise CliError(f"argument {flag}: invalid choice: {value!r} "
                       f"(choose from {', '.join(map(repr, choices))})")
    return value


def read_flags(prog: str, description: str, flags: dict, argv) -> SimpleNamespace:
    """Read ``argv`` against ``flags`` as argparse does: ``--flag value``
    or ``--flag=value``, a flag shortened to a unique prefix, the last
    value of a repeated flag, no flag after ``--``.  The refusals come in
    argparse's order: an ambiguous prefix anywhere, then each missing or
    bad value as it is read, then missing required flags, then
    unrecognized words.  ``-h``/``--help`` prints the flags and exits 0
    when it is read."""
    flags = {"--help": dict(action="help", help="show this help message and exit"), **flags}
    values = {flag: kwargs.get("default", False if "action" in kwargs else None)
              for flag, kwargs in flags.items()}
    end = argv.index("--") if "--" in argv else len(argv)
    # every flag is resolved first, so an ambiguous prefix is refused first
    named = [resolve(flags, t) if is_flag(t) else (None, None) for t in argv[:end]]
    unknown, given, i = [], set(), 0
    while i < end:
        (flag, joined), i = named[i], i + 1
        if flag is None:
            unknown.append(argv[i - 1])
            continue
        kwargs = flags[flag]
        if "action" in kwargs:  # --help or a switch: no value
            if joined is not None:
                raise CliError(f"argument {'-h/' * (flag == '--help')}{flag}: "
                               f"ignored explicit argument {joined!r}")
            if flag == "--help":
                print(_help(prog, description, flags), flush=True)
                raise SystemExit(0)
            values[flag] = True
        else:
            if joined is None:
                if i == end or is_flag(argv[i]):
                    raise CliError(f"argument {flag}: expected one argument")
                joined, i = argv[i], i + 1
            values[flag] = _read_value(flag, kwargs, joined)
        given.add(flag)
    missing = [flag for flag, kwargs in flags.items()
               if kwargs.get("required") and flag not in given]
    if missing:
        raise CliError(f"the following arguments are required: {', '.join(missing)}")
    if unknown or end < len(argv):
        raise CliError(f"unrecognized arguments: {' '.join(unknown + list(argv[end:]))}")
    del values["--help"]
    return SimpleNamespace(**{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def _help(prog: str, description: str, flags: dict) -> str:
    usage, rows = [f"usage: {prog}"], []
    for flag, kwargs in flags.items():
        metavar = "{%s}" % ",".join(kwargs["choices"]) if "choices" in kwargs \
            else flag[2:].upper()
        spelled = ("-h, " * (flag == "--help") + flag if "action" in kwargs
                   else f"{flag} {metavar}")
        usage += [spelled] * bool(kwargs.get("required"))
        rows.append(f"  {spelled:<24}  {kwargs.get('help', '')}".rstrip())
    return "\n".join([" ".join(usage + ["[flags]"]), "", description, "", "flags:", *rows])
