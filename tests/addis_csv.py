"""Deterministic CSV files in the Addis Ababa schema, for tests of the CSV path."""

import numpy as np


def write_addis_like_csv(path, schema, n_rows, vocab, seed, nul_label=True):
    """A CSV with the Addis schema's columns: categorical cells drawn from
    `vocab` values per column (some padded with spaces, some with a trailing
    NUL that makes them a category of their own), small numeric counts, four
    labels and, when nul_label is set, one NUL-suffixed label, and scattered
    blank and non-finite cells.

    The NUL-suffixed label is a one-row class, which the stratified split
    rejects; without it the file is the same but for that one label cell.
    """
    rng = np.random.default_rng(seed)
    columns = list(schema.roles)
    labels = ["Slight Injury", "Serious Injury", "Fatal injury", "Unknown"]
    bad_numeric = ["", "nan", "inf", "1e400", "-inf", "NaN", "two"]
    lines = [",".join(columns)]
    for i in range(n_rows):
        cells = []
        for col in columns:
            role = schema.roles[col]
            if role == "feature_numeric":
                cell = f"{rng.integers(1, 7) * 0.5:g}"
                if rng.random() < 0.01:
                    cell = bad_numeric[rng.integers(len(bad_numeric))]
            elif role == "label":
                cell = labels[rng.choice(4, p=[0.6, 0.3, 0.07, 0.03])]
            else:
                cell = f"{col[:5]} {rng.integers(vocab)}"
                cell = f" {cell} " if rng.random() < 0.05 else cell
                cell = f"{cell}\x00" if rng.random() < 0.02 else cell
                if rng.random() < 0.002:
                    cell = ""
            cells.append(cell)
        if i < len(bad_numeric):  # every kind of bad numeric cell appears
            cells[columns.index("Number_of_casualties")] = bad_numeric[i]
        if nul_label and i == len(bad_numeric):
            cells[columns.index(schema.label_column)] = "Slight Injury\x00"
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)
