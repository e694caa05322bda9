"""Usage: python .github/readme-keys.py README.md

Fails, naming each section that differs, unless the keys of the README's
configuration table are those of dftr.cli._KEYS, section by section. A row's
section cell is empty when it continues the section above; its keys are the
backquoted names of its key cell.
"""

import re
import sys

from dftr.cli import _KEYS

table, section = {}, None
with open(sys.argv[1]) as fh:
    lines = iter(fh)
    for line in lines:
        if re.match(r"\|\s*section\s*\|\s*key\s*\|", line):
            break
    next(lines, None)  # the |---| rule
    for line in lines:
        if not line.startswith("|"):
            break
        cells = line.split("|")
        name = re.fullmatch(r"\s*`\[(\w+)\]`\s*", cells[1])
        section = name.group(1) if name else section
        table.setdefault(section, set()).update(re.findall(r"`([^`]+)`", cells[2]))

expected = {sec: set(keys) for sec, keys in _KEYS.items()}
bad = [f"[{sec}]: README {sorted(table.get(sec, ()))}, _KEYS {sorted(expected.get(sec, ()))}"
       for sec in sorted(set(table) | set(expected)) if table.get(sec) != expected.get(sec)]
if bad:
    sys.exit(f"{sys.argv[1]}'s configuration table differs from dftr.cli._KEYS:\n"
             + "\n".join(bad))
print(f"{sys.argv[1]}: {sum(map(len, table.values()))} keys, as in dftr.cli._KEYS")
