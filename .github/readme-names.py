"""Usage: python .github/readme-names.py README.md

Fails, naming each one, unless every backquoted dotted identifier in a row of
the README's module map resolves as an attribute of that row's dftr module. A
name written as a call, `name(a, *, b)`, must also list its callable's
parameters in order, without self and with a bare * where the keyword-only ones
begin; a default may be written with its name, as `b=None`.
"""

import importlib
import inspect
import re
import sys

NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\((.*)\))?")


def parameters(fn) -> list:
    """fn's parameter names as a call lists them: no self, * before the keyword-only."""
    names, starred = [], False
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and not starred:
            names.append("*")
        starred = starred or p.kind in (p.KEYWORD_ONLY, p.VAR_POSITIONAL)
        names.append({p.VAR_POSITIONAL: "*", p.VAR_KEYWORD: "**"}.get(p.kind, "") + p.name)
    return names[1:] if names[:1] == ["self"] else names


bad, count = [], 0
with open(sys.argv[1]) as fh:
    lines = iter(fh)
    for line in lines:
        if re.match(r"\|\s*module\s*\|\s*contents\s*\|", line):
            break
    next(lines, None)  # the |---| rule
    for line in lines:
        if not line.startswith("|"):
            break
        cells = line.split("|")
        module = importlib.import_module(re.fullmatch(r"\s*`(dftr\.\w+)`\s*", cells[1]).group(1))
        for text in re.findall(r"`([^`]+)`", cells[2]):
            name = NAME.fullmatch(text)
            if not name:
                continue
            count += 1
            obj = module
            try:
                for part in name.group(1).split("."):
                    obj = getattr(obj, part)
            except AttributeError:
                bad.append(f"{module.__name__}: `{text}` does not resolve")
                continue
            if name.group(2) is not None:
                written = [a.split("=")[0].strip() for a in name.group(2).split(",") if a.strip()]
                if written != parameters(obj):
                    bad.append(f"{module.__name__}: `{text}` lists {written}, "
                               f"the signature {parameters(obj)}")

if bad:
    sys.exit(f"{sys.argv[1]}'s module map names what its modules lack:\n" + "\n".join(bad))
print(f"{sys.argv[1]}: {count} names in the module map, each an attribute of its module")
