import pytest

MISSING = "<missing>"


@pytest.fixture()
def mutate():
    """Set a dotted path in a JSON document (digits index lists), or
    delete it when the value is MISSING."""
    def apply(doc, path: str, value) -> None:
        *parents, key = [int(k) if k.isdigit() else k for k in path.split(".")]
        for parent in parents:
            doc = doc[parent]
        if value == MISSING:
            del doc[key]
        else:
            doc[key] = value
    return apply
