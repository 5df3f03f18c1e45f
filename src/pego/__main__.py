from . import entry

if __name__ == "__main__":  # not in a pool worker that re-imports the main module
    entry()
