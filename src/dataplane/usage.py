"""The command line's help and usage messages, printed from cli.COMMANDS.

Only `--help` and bad usage print them, so they live apart from `cli`:
every process compiles the modules it imports from source, and `sim` and
`check` import none of this.
"""

from __future__ import annotations

import sys
from typing import NoReturn, Optional


def exit_with_usage(commands: dict, required: object, cmd: Optional[str],
                    error: Optional[str] = None) -> NoReturn:
    """With an error, the usage line and the error on stderr, and exit 2;
    without, the help on stdout, and exit 0.  commands is cli.COMMANDS,
    required the default of an argument that must be given, and cmd the
    command whose usage is printed, or None for the whole program's."""
    usage = f"usage: dataplane [-h] {{{','.join(commands)}}} ..."
    rows = [(name, help) for name, (_, help, _) in commands.items()]
    if cmd is not None:
        usage, rows = f"usage: dataplane {cmd} [-h]", [("-h, --help", "show this help and exit")]
        for name, (type_, default, choices, help) in commands[cmd][2].items():
            word = f"{name} {name[2:].upper()}" if name[0] == "-" and type_ is not bool else name
            usage += f" {word}" if default is required else f" [{word}]"
            notes = [help, default is required and "(required)",
                     choices is not None and f"(choices: {', '.join(choices)})",
                     type_ is not bool and default not in (None, required)
                     and f"(default: {default})"]
            rows.append((word, " ".join(filter(None, notes))))
    if error is not None:
        sys.stderr.write(f"{usage}\ndataplane: error: {error}\n")
        raise SystemExit(2)
    width = max(len(word) for word, _ in rows)
    try:
        sys.stdout.write(f"{usage}\n\n" + "".join(f"  {w:<{width}}  {h}\n" for w, h in rows))
    except OSError as e:  # an unbuffered stdout that is a closed pipe: one line, exit 2
        sys.stderr.write(f"error: {e}\n")
        raise SystemExit(2) from None
    raise SystemExit(0)


