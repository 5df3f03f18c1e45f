from . import entry

if __name__ == "__main__":
    entry()
