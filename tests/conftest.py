from pathlib import Path

import pytest


@pytest.fixture
def full_disk(monkeypatch):
    """Call with a file name: from then on the harness's writes to that file
    put out a few characters and then fail as a full disk would."""
    from dbsadam import harness

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            self.fh.write(text[:5])
            raise OSError(28, "No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def fail_writes_to(victim):
        def failing_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            return FullDisk(fh) if Path(path).name.startswith(victim) else fh

        monkeypatch.setattr(harness, "open", failing_open, raising=False)

    return fail_writes_to
